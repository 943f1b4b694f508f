"""Small dense matrix algebra and chi-square tail utilities.

The matrices here are tiny and symmetric (the CLS Gram matrix and W_hat,
at most ``2*(p+1)`` square for order p). ``eigh_batch`` decomposes a stack
of them with one ``np.linalg.eigh``, which runs LAPACK once per matrix, so
each gets the bits it gets alone; callers invert as Q diag(1/lambda) Q'.

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

# Relative eigenvalue threshold at or below which a matrix is declared singular.
EIG_RTOL = 1e-12


def eigh_batch(m):
    """Eigenvalues (R, d), eigenvectors (R, d, d) and singular flags (R,) of
    a stack (R, d, d) of finite symmetric matrices (lower triangles read).

    A matrix is singular when its smallest |eigenvalue| is at most
    ``EIG_RTOL`` times its largest, a rule blind to scale; its eigenvalues
    then read 1, so Q diag(1/lambda) Q' gives the identity in its place.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not 1 <= a.shape[1] <= MAX_DIM:
        raise ValueError(f"matrix dimension {a.shape[1]} outside supported range 1..{MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    sizes = np.abs(eigenvalues)
    singular = sizes.min(axis=1) <= EIG_RTOL * sizes.max(axis=1)
    eigenvalues[singular] = 1.0
    return eigenvalues, eigenvectors, singular


def invert(m):
    """Invert one symmetric matrix: ``eigh_batch`` on a stack of one, as
    Q diag(1/lambda) Q'. Raises ``SingularMatrixError`` for a singular matrix
    and ``ValueError`` for one that is not symmetric to rounding."""
    a = np.asarray(m, dtype=np.float64)
    eigenvalues, eigenvectors, singular = eigh_batch(a[None])
    if np.abs(a - a.T).max() > EIG_RTOL * np.abs(a).max():
        raise ValueError("matrix is not symmetric")
    if singular[0]:
        raise SingularMatrixError("matrix is singular to working precision")
    q = eigenvectors[0]
    return (q / eigenvalues[0]) @ q.T


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
