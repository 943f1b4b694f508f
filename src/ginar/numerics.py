"""Small dense matrix algebra and chi-square tail utilities.

Everything here operates on tiny matrices (at most ``2*(p+1)`` square, with
p the autoregressive order), so a plain Gauss-Jordan sweep is both fast
enough and lets us surface the exact pivot that went bad instead of a
generic linear-algebra failure.

The chi-square tail is only ever needed for integer degrees of freedom
(p+1 for the full test, the subset size for the subvector test), where it
has a closed form: erfc or exp for df 1 or 2, plus a finite sum of positive
terms for each further pair of degrees of freedom.
"""

import math

import numpy as np

from .errors import SingularMatrixError

# All matrices in this package are (p+1) or 2(p+1) square; anything bigger
# than this is a caller bug, not a workload.
MAX_DIM = 64

# Relative pivot threshold below which a matrix is declared singular.
PIVOT_RTOL = 1e-12


def invert(m):
    """Invert a square matrix by Gauss-Jordan elimination with partial pivoting.

    Parameters
    ----------
    m : array_like
        Square matrix with finite entries, dimension at most ``MAX_DIM``.

    Returns
    -------
    ndarray
        The inverse of ``m``.

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude falls below ``PIVOT_RTOL`` times the largest
        absolute entry of the input. The error carries the pivot index.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0 or n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")

    scale = np.max(np.abs(a))
    threshold = PIVOT_RTOL * scale
    inv = np.eye(n)

    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= threshold:
            raise SingularMatrixError(col)
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        a[col] /= pivot
        inv[col] /= pivot
        for row in range(n):
            if row != col and a[row, col] != 0.0:
                factor = a[row, col]
                a[row] -= factor * a[col]
                inv[row] -= factor * inv[col]
    return inv


def chi_square_survival(x, df):
    """Upper tail probability P(X > x) for X ~ chi-square with ``df`` dof.

    For integer ``df`` the tail is a finite sum of positive terms
    (Abramowitz & Stegun 26.4.4-26.4.5): Q(x; 1) = erfc(sqrt(x/2)),
    Q(x; 2) = exp(-x/2), and

        Q(x; k+2) = Q(x; k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1).
    """
    if df < 1 or int(df) != df:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"chi-square statistic must be finite and nonnegative, got {x}")
    half = 0.5 * x
    if half == 0.0:
        return 1.0
    odd = df % 2 == 1
    tail = math.erfc(math.sqrt(half)) if odd else math.exp(-half)
    log_half = math.log(half)
    for k in range(1 if odd else 2, int(df), 2):
        tail += math.exp(0.5 * k * log_half - half - math.lgamma(0.5 * k + 1.0))
    return min(1.0, tail)  # rounding can overshoot 1 by an ulp at small x


def chi_square_quantile(prob, df):
    """Quantile x with P(X <= x) = prob for X ~ chi-square with ``df`` dof.

    Solved by bisection on the survival function to absolute tolerance 1e-9.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {prob}")
    target = 1.0 - prob
    lo, hi = 0.0, max(2.0 * df, 20.0)
    while chi_square_survival(hi, df) > target:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("quantile bracket expansion failed")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if chi_square_survival(mid, df) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
