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

The module also builds the plug-in moment matrices of the estimators'
joint asymptotic covariance and assembles the sandwich V, both in the
cross-term-free form the CLS estimating functions admit and in the general
form with a nonzero J_vm block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError, SingularMatrixError
from .numerics import MAX_DIM, invert

__all__ = [
    "Regressors",
    "CLSFit",
    "MomentMatrices",
    "build_regressors",
    "fit_cls",
    "estimate_moment_matrices",
    "assemble_V_cls",
    "assemble_V_general",
    "format_fit_report",
]


@dataclass(frozen=True)
class Regressors:
    """Aligned regression rows: response Z_t against Y_{t-1} = (lags, 1)."""

    response: np.ndarray  # (n_eff,)
    design: np.ndarray  # (n_eff, p+1); last column identically 1

    def __len__(self):
        return self.response.shape[0]


def build_regressors(series, p):
    """Pair each Z_t (t = p+1..n) with its regressor (Z_{t-1},...,Z_{t-p},1).

    Counts above 2**53 are refused: float64 holds every integer up to 2**53 exactly.
    """
    z = np.asarray(series)
    if z.ndim != 1:
        raise InputError(f"series must be one-dimensional, got shape {z.shape}")
    if not 1 <= p < MAX_DIM:
        raise InputError(f"order must be an integer in 1..{MAX_DIM - 1}, got {p}")
    if len(z) <= p:
        raise InputError(f"series length {len(z)} too short for order {p}")
    counts = z.astype(np.float64)
    if np.any(counts < 0) or (z.dtype.kind not in "iu" and np.any(counts != np.floor(counts))):
        raise InputError("series values must be nonnegative integers")
    largest = z.max()
    if largest > 2**53:
        raise InputError(f"count {largest} exceeds 2**53, the largest a float64 holds exactly")
    n_eff = len(z) - p
    design = np.ones((n_eff, p + 1))
    for i in range(p):
        design[:, i] = counts[p - 1 - i : len(z) - 1 - i]
    return Regressors(response=counts[p:], design=design)


@dataclass(frozen=True)
class CLSFit:
    """Both CLS stages plus the rows and inverse Gram matrix mean(Y Y')^{-1}
    they share, which the moment matrices reuse."""

    mu_hat: np.ndarray
    theta_hat: np.ndarray
    rows: Regressors
    gram_inv: np.ndarray
    warnings: tuple = ()

    @property
    def n_eff(self):
        return len(self.rows)


def fit_cls(series, p):
    """Run both CLS stages on a series and collect estimate-quality warnings.

    The regressors are built and their Gram matrix inverted once, for both
    stages.
    """
    rows = build_regressors(series, p)
    n_eff = len(rows)
    if n_eff < p + 2:
        raise EstimationError(f"need at least p + 2 = {p + 2} rows, got {n_eff}")
    design = rows.design
    try:
        gram_inv = invert(design.T @ design / n_eff)
    except SingularMatrixError as exc:
        raise EstimationError(
            "singular Gram matrix: regressor columns are linearly dependent "
            f"(pivot {exc.pivot_index}); a constant series is the typical cause"
        ) from exc
    mu_hat = gram_inv @ (design.T @ rows.response / n_eff)
    residuals = rows.response - design @ mu_hat
    theta_hat = gram_inv @ (design.T @ residuals**2 / n_eff)

    warnings = []
    thinning_means = mu_hat[:-1]
    if np.any(thinning_means < 0.0) or thinning_means.sum() >= 1.0:
        warnings.append(
            "estimated thinning means fall outside the stationarity region "
            f"(mu_hat[:p] = {np.round(thinning_means, 6).tolist()})"
        )
    for i, value in enumerate(theta_hat):
        if value < 0.0:
            label = "innovation" if i == p else f"lag {i + 1}"
            warnings.append(f"variance estimate for {label} is negative ({value:.6g})")
    return CLSFit(mu_hat=mu_hat, theta_hat=theta_hat, rows=rows, gram_inv=gram_inv, warnings=tuple(warnings))


@dataclass(frozen=True)
class MomentMatrices:
    """Empirical moment matrices and the assembled joint covariance.

    jm = mean of Y Y' (the CLS estimating functions give J_v = J_m, so it
    serves both stages); im, imv, iv are the score-variance blocks; v is
    the assembled 2(p+1) covariance of sqrt(n_eff) * (mu_hat, theta_hat)
    around truth, partitioned into (p+1) blocks v11, v12, v21, v22.
    """

    jm: np.ndarray
    im: np.ndarray
    imv: np.ndarray
    iv: np.ndarray
    v: np.ndarray

    @property
    def _half(self):
        return self.jm.shape[0]

    @property
    def v11(self):
        return self.v[: self._half, : self._half]

    @property
    def v12(self):
        return self.v[: self._half, self._half :]

    @property
    def v21(self):
        return self.v[self._half :, : self._half]

    @property
    def v22(self):
        return self.v[self._half :, self._half :]


def estimate_moment_matrices(fit):
    """Plug-in moment matrices of a CLSFit, all empirical means over its rows.

    With residual r_t = Z_t - mu_hat'Y and fitted variance v_t = theta_hat'Y:

        jm  = mean(Y Y')
        im  = mean(v_t * Y Y')
        imv = mean(r_t^3 * Y Y')
        iv  = mean((r_t^4 - v_t^2) * Y Y')

    and v is assembled via ``assemble_V_cls`` from the fit's ``gram_inv``.
    """
    design = fit.rows.design
    n_eff = fit.n_eff
    residuals = fit.rows.response - design @ fit.mu_hat
    fitted_var = design @ fit.theta_hat

    def weighted_mean(weights):
        return (design * weights[:, None]).T @ design / n_eff

    im = weighted_mean(fitted_var)
    imv = weighted_mean(residuals**3)
    iv = weighted_mean(residuals**4 - fitted_var**2)
    return MomentMatrices(
        jm=design.T @ design / n_eff,
        im=im,
        imv=imv,
        iv=iv,
        v=assemble_V_cls(fit.gram_inv, im, imv, iv),
    )


def assemble_V_cls(jm_inv, im, imv, iv):
    """Assemble V from CLS moment matrices (zero J_vm cross block, J_v = J_m).

    v11 = jm^{-1} im jm^{-1}; v12 = jm^{-1} imv jm^{-1}; v21 = v12';
    v22 = jm^{-1} iv jm^{-1}.
    """
    v11 = jm_inv @ im @ jm_inv
    v12 = jm_inv @ imv @ jm_inv
    v22 = jm_inv @ iv @ jm_inv
    return np.block([[v11, v12], [v12.T, v22]])


def assemble_V_general(jm, jv, jvm, im, imv, iv):
    """Assemble V for estimating equations with a nonzero J_vm cross block.

    Implements the full block formulas

        v11 = jm^{-1} im jm^{-1}
        v12 = jm^{-1} (imv - im jm^{-1} jvm') jv^{-1}
        v21 = v12'
        v22 = jv^{-1} (iv + jvm jm^{-1} im jm^{-1} jvm'
                       - imv' jm^{-1} jvm' - jvm jm^{-1} imv) jv^{-1}

    which reduce to ``assemble_V_cls`` when jvm = 0 and jv = jm.
    """
    jm_inv = invert(np.asarray(jm, dtype=np.float64))
    jv_inv = invert(np.asarray(jv, dtype=np.float64))
    jvm = np.asarray(jvm, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    imv = np.asarray(imv, dtype=np.float64)
    iv = np.asarray(iv, dtype=np.float64)
    v11 = jm_inv @ im @ jm_inv
    v12 = jm_inv @ (imv - im @ jm_inv @ jvm.T) @ jv_inv
    core = iv + jvm @ jm_inv @ im @ jm_inv @ jvm.T - imv.T @ jm_inv @ jvm.T - jvm @ jm_inv @ imv
    v22 = jv_inv @ core @ jv_inv
    return np.block([[v11, v12], [v12.T, v22]])


def _format_vector(vec):
    return "  ".join(f"{x:.6g}" for x in vec)


def format_fit_report(fit):
    """Structured text report for a CLSFit."""
    lines = [
        "conditional least squares fit",
        f"  n_eff: {fit.n_eff}",
        f"  mu_hat: {_format_vector(fit.mu_hat)}",
        f"  theta_hat: {_format_vector(fit.theta_hat)}",
    ]
    if fit.warnings:
        lines.append("  warnings:")
        lines.extend(f"    - {w}" for w in fit.warnings)
    else:
        lines.append("  warnings: none")
    return "\n".join(lines)
