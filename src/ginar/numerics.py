"""Small dense matrix algebra and chi-square tail utilities.

Everything here operates on tiny matrices (at most ``2*(p+1)`` square, with
p the autoregressive order), so a plain Gauss-Jordan sweep over each matrix
of a stack is both fast enough and lets us surface the exact pivot that went
bad instead of a generic linear-algebra failure.

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


def invert_batch(m):
    """Gauss-Jordan elimination with partial pivoting on each matrix of a
    stack (R, d, d) of finite matrices, d at most ``MAX_DIM``.

    Returns the inverses and per matrix the index of its first pivot at or
    below ``PIVOT_RTOL`` times its largest absolute entry, -1 if none (its
    inverse is then the identity). Matrices this small are swept fastest on
    Python floats, which take the same IEEE steps as numpy's, one at a time.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    n = a.shape[1]
    if n == 0 or n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} outside supported range 1..{MAX_DIM}")
    scales = np.abs(a).max(axis=(1, 2))  # NaN or inf if an entry is
    if not np.isfinite(scales).all():
        raise ValueError("matrix entries must be finite")
    eye = np.eye(n).tolist()
    inverses, pivots = [], []
    for rows, threshold in zip(a.tolist(), (PIVOT_RTOL * scales).tolist()):
        aug = [row + unit for row, unit in zip(rows, eye)]  # a row of [a | I]
        pivots.append(-1)
        for col in range(n):
            if col < n - 1:
                column = [abs(row[col]) for row in aug[col:]]
                pivot_row = col + column.index(max(column))  # the first largest
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot = aug[col][col]
            if abs(pivot) <= threshold:
                pivots[-1] = col
                break
            top = aug[col] = [x / pivot for x in aug[col]]
            for r, row in enumerate(aug):
                factor = row[col]
                if r != col and factor != 0.0:
                    aug[r] = [x - factor * y for x, y in zip(row, top)]
        inverses.append(eye if pivots[-1] >= 0 else [row[n:] for row in aug])
    return np.array(inverses).reshape(a.shape), np.array(pivots, dtype=np.int64)


def invert(m):
    """Invert one square matrix: ``invert_batch`` on a stack of one, raising
    ``SingularMatrixError`` with the index of the first bad pivot."""
    inv, pivots = invert_batch(np.asarray(m, dtype=np.float64)[None])
    if pivots[0] >= 0:
        raise SingularMatrixError(int(pivots[0]))
    return inv[0]


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
