"""Conditional least squares estimation for GINAR(p) series.

Both stages have closed forms. With Y_{t-1} = (Z_{t-1}, ..., Z_{t-p}, 1)
and sums over t = p+1..n (n_eff = n - p terms):

    mu_hat    = (sum Y Y')^{-1} sum Z_t Y            (conditional mean)
    theta_hat = (sum Y Y')^{-1} sum (Z_t - mu_hat'Y)^2 Y   (conditional variance)

so mu_hat stacks the thinning means (mu_1..mu_p, mu_eps) and theta_hat the
variances (sigma^2_1..sigma^2_p, sigma^2_eps). The closed forms are the
unconstrained minimizers of the two CLS objectives; components may land
outside the stationarity region or below zero on short series, in which
case they are returned as-is with a warning attached (projecting them would
silently change the downstream test statistic).

A fit keeps its design matrix, residuals, Gram matrix and inverse Gram
matrix, and the plug-in moment matrices reuse them rather than recompute
them. The design is the transposed view of one C-contiguous (p+1, n_eff)
array, so the Gram matrix, Y'z, Y'r^2 and each weighted Gram (Y' * w) Y
are products over its contiguous rows. ``assemble_V_cls`` gives the blocks v11, v12 and v22 of the sandwich
covariance V of the estimators, in the cross-term-free form the CLS
estimating functions admit (v21 = v12').

The Gram matrix is inverted as Q diag(1/lambda) Q' by ``numerics.eigh_batch``.
Every stage also takes a block (R, n) of equal-length series, each row
getting the bits of its series fitted alone; a block fit flags singular
Gram matrices in ``singular_gram`` and carries no warning text.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError, require_int
from .numerics import EIG_RTOL, MAX_DIM, eigh_batch

__all__ = [
    "CLSFit",
    "MomentMatrices",
    "build_regressors",
    "fit_cls",
    "estimate_moment_matrices",
    "assemble_V_cls",
]


def build_regressors(series, p):
    """Pair each Z_t (t = p+1..n) with its regressor (Z_{t-1},...,Z_{t-p},1).

    Returns ``(response, design)``: the (n_eff,) responses and the
    (n_eff, p+1) design matrix, whose last column is identically 1, with a
    leading R axis for a block; the design is the transposed view of one
    C-contiguous (p+1, n_eff) array. Counts above 2**53 are refused: float64
    holds every integer up to 2**53 exactly. So are bool, complex and string
    series, and object series holding anything but real, non-bool numbers.
    """
    z = np.asarray(series)
    if z.ndim not in (1, 2) or z.size == 0:
        raise InputError(f"series must be one series (n,) or a block (R, n) of them, got shape {z.shape}")
    require_int("order", p, 1, MAX_DIM)
    n = z.shape[-1]
    if n <= p:
        raise InputError(f"series length {n} too short for order {p}")
    kind = z.dtype.kind
    if kind not in "iufO":  # bool, complex and string series are not counts
        raise InputError(f"series values must be nonnegative integers, got dtype {z.dtype}")
    if kind == "O":  # nor are bools, strings or other objects mixed into a series
        for value in z.flat:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InputError(f"series values must be nonnegative integers, got {value!r}")
    counts = z.astype(np.float64)
    if (z.min() < 0) if kind in "iu" else (np.any(counts < 0) or np.any(counts != np.floor(counts))):
        raise InputError("series values must be nonnegative integers")
    largest = z.max()
    if largest > 2**53:
        raise InputError(f"count {largest} exceeds 2**53, the largest a float64 holds exactly")
    design_t = np.empty(z.shape[:-1] + (p + 1, n - p))
    for i in range(p):
        design_t[..., i, :] = counts[..., p - 1 - i : n - 1 - i]
    design_t[..., p, :] = 1.0
    return counts[..., p:], design_t.swapaxes(-1, -2)


@dataclass(frozen=True)
class CLSFit:
    """Both CLS stages plus what they computed on the way: the design
    matrix (the transposed view of a contiguous (p+1, n_eff) array), the
    first-stage residuals Z_t - mu_hat'Y, the Gram matrix mean(Y Y') and its
    inverse, which the moment matrices reuse; for a block, whether each row's
    Gram matrix is singular."""

    mu_hat: np.ndarray
    theta_hat: np.ndarray
    design: np.ndarray
    residuals: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray
    warnings: tuple = ()
    singular_gram: np.ndarray = None

    @property
    def n_eff(self):
        return self.design.shape[-2]


def fit_cls(series, p):
    """Run both CLS stages on a series, or each row of a block, and collect
    estimate-quality warnings; the regressors are built and their Gram
    matrix inverted once, for both stages."""
    response, design = build_regressors(series, p)
    n_eff = response.shape[-1]
    if n_eff < p + 2:
        raise InputError(
            f"series length {n_eff + p} too short for order {p}: the fit needs at least 2p + 2 = {2 * p + 2} values"
        )
    design_t = design.swapaxes(-1, -2)  # the contiguous (p+1, n_eff) array
    gram = design_t @ design / n_eff
    eigenvalues, q, singular = eigh_batch(gram.reshape(-1, p + 1, p + 1))
    if gram.ndim == 2 and singular[0]:
        raise EstimationError(
            "singular Gram matrix: regressor columns are linearly dependent; a constant series is the typical cause"
        )
    gram_inv = ((q / eigenvalues[:, None, :]) @ q.swapaxes(-1, -2)).reshape(gram.shape)
    mu_hat = (gram_inv @ (design_t @ response[..., None] / n_eff))[..., 0]
    residuals = response - (design @ mu_hat[..., None])[..., 0]
    theta_hat = (gram_inv @ (design_t @ (residuals * residuals)[..., None] / n_eff))[..., 0]
    if gram.ndim == 3:
        return CLSFit(mu_hat, theta_hat, design, residuals, gram, gram_inv, singular_gram=singular)

    warnings = []
    thinning_means = mu_hat[:-1].tolist()
    if min(thinning_means) < 0.0 or sum(thinning_means) >= 1.0:
        warnings.append(
            "estimated thinning means fall outside the stationarity region "
            f"(mu_hat[:p] = {np.round(mu_hat[:-1], 6).tolist()})"
        )
    # a component that is zero in exact arithmetic can land an ulp below it
    theta = theta_hat.tolist()
    floor = -EIG_RTOL * max(map(abs, theta))
    for i, value in enumerate(theta):
        if value < floor:
            label = "innovation" if i == p else f"lag {i + 1}"
            warnings.append(f"variance estimate for {label} is negative ({value:.6g})")
    return CLSFit(mu_hat, theta_hat, design, residuals, gram, gram_inv, tuple(warnings))


@dataclass(frozen=True)
class MomentMatrices:
    """Empirical moment matrices and the blocks of the joint covariance.

    jm = mean of Y Y' (the CLS estimating functions give J_v = J_m, so it
    serves both stages); im, imv, iv are the score-variance blocks; v11,
    v12 and v22 are the (p+1) blocks of the 2(p+1) covariance V of
    sqrt(n_eff) * (mu_hat, theta_hat) around truth, with v21 = v12'.
    """

    jm: np.ndarray
    im: np.ndarray
    imv: np.ndarray
    iv: np.ndarray
    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray

    @property
    def v(self):
        """The full covariance V, assembled from its blocks; one V per row of a block fit."""
        return np.block([[self.v11, self.v12], [np.swapaxes(self.v12, -1, -2), self.v22]])


def estimate_moment_matrices(fit):
    """Plug-in moment matrices of a CLSFit, all empirical means over its rows.

    With residual r_t = Z_t - mu_hat'Y and fitted variance v_t = theta_hat'Y:

        jm  = mean(Y Y')
        im  = mean(v_t * Y Y')
        imv = mean(r_t^3 * Y Y')
        iv  = mean((r_t^4 - v_t^2) * Y Y')

    jm, Y and r_t are the fit's own; the V blocks come from
    ``assemble_V_cls`` with the fit's ``gram_inv``.
    """
    design = fit.design
    design_t = design.swapaxes(-1, -2)
    residuals = fit.residuals
    fitted_var = (design @ fit.theta_hat[..., None])[..., 0]
    r2 = residuals * residuals
    weights = (fitted_var, r2 * residuals, r2 * r2 - fitted_var * fitted_var)
    im, imv, iv = ((design_t * w[..., None, :]) @ design / fit.n_eff for w in weights)
    return MomentMatrices(fit.gram, im, imv, iv, *assemble_V_cls(fit.gram_inv, im, imv, iv))


def assemble_V_cls(jm_inv, im, imv, iv):
    """Blocks (v11, v12, v22) of V for CLS moment matrices (zero J_vm cross
    block, J_v = J_m):

        v11 = jm^{-1} im jm^{-1}; v12 = jm^{-1} imv jm^{-1}; v22 = jm^{-1} iv jm^{-1}

    and v21 = v12'.
    """
    return tuple(jm_inv @ m @ jm_inv for m in (im, imv, iv))

