"""Chi-square test of a hypothesized mean-variance relationship.

The null states that each counting sequence and the innovation come from
families whose variance is a known function kappa of the mean, so the
vector kappa(mu_0) - theta_0 is zero. The statistic

    T = n_eff * (kappa(mu_hat) - theta_hat)' W_hat^{-1} (kappa(mu_hat) - theta_hat)

is asymptotically chi-square with p+1 degrees of freedom under the null,
where W_hat is the delta-method covariance of the discrepancy,

    W = K v11 K - K v12 - v21 K + v22,

built from the blocks of the estimators' joint covariance V and the
diagonal matrix K of kappa derivatives at mu_hat. A subvector variant
restricts the discrepancy and W to selected components (e.g. thinning lags
only), with degrees of freedom equal to the number of tested components.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cls import estimate_moment_matrices, fit_cls
from .distributions import KappaFamily, parse_kappa
from .errors import InputError, SingularMatrixError, TestError
from .numerics import chi_square_survival, invert

__all__ = [
    "NullSpec",
    "TestResult",
    "build_K",
    "assemble_W",
    "test_statistic",
    "run_test",
    "run_subvector_test",
    "parse_null",
    "format_test_report",
]


@dataclass(frozen=True)
class NullSpec:
    """One kappa family per thinning lag plus one for the innovation."""

    kappas: tuple

    def __post_init__(self):
        kappas = tuple(self.kappas)
        object.__setattr__(self, "kappas", kappas)
        if len(kappas) < 2:
            raise InputError("NullSpec needs at least two kappa families (p >= 1)")
        for k in kappas:
            if not isinstance(k, KappaFamily):
                raise InputError(f"expected a KappaFamily, got {k!r}")

    @property
    def order(self):
        return len(self.kappas) - 1


def parse_null(text, p=None):
    """Parse a comma-separated null spec, e.g. ``bernoulli,poisson``."""
    tokens = [tok for tok in text.split(",") if tok.strip()]
    if len(tokens) < 2:
        raise InputError(f"null spec needs p+1 >= 2 kappa families, got {text!r}")
    kappas = tuple(parse_kappa(tok) for tok in tokens)
    if p is not None and len(kappas) != p + 1:
        raise InputError(f"null spec {text!r} has {len(kappas)} families, expected p+1 = {p + 1}")
    return NullSpec(kappas)


@dataclass(frozen=True)
class TestResult:
    """Outcome of the mean-variance test."""

    statistic: float
    df: int
    p_value: float
    reject: bool
    level: float
    discrepancy: np.ndarray  # kappa(mu_hat) - theta_hat on the tested indices
    w_hat: np.ndarray  # covariance of the tested discrepancy components
    indices: tuple  # 1-based tested positions
    warnings: tuple = ()


def build_K(null, mu_hat):
    """kappa(mu_hat), the diagonal of K = diag(kappa'(mu_hat)) and the
    admissibility warnings, in one pass over the null.

    Components outside a family's admissible range are evaluated by the
    smooth extension of the formula and reported in the returned warnings
    rather than raised, so boundary-ish estimates do not abort a run.
    """
    mu_hat = np.asarray(mu_hat, dtype=np.float64)
    if len(mu_hat) != len(null.kappas):
        raise ValueError(f"mu_hat has length {len(mu_hat)}, null expects {len(null.kappas)}")
    warnings = []
    values = np.empty(len(mu_hat))
    k = np.empty(len(mu_hat))
    for i, (kappa, mu) in enumerate(zip(null.kappas, mu_hat)):
        if not kappa.admissible(mu):
            warnings.append(
                f"estimated mean {mu:.6g} at position {i + 1} is outside the "
                f"admissible range {kappa.range_text} of the {kappa.name} kappa "
                "family; formulas evaluated by smooth extension"
            )
        values[i] = kappa.value(mu)
        k[i] = kappa.derivative(mu)
    return values, k, warnings


def assemble_W(k, v11, v12, v22):
    """Delta-method covariance of kappa(mu_hat) - theta_hat.

    W = K v11 K - K v12 - v21 K + v22 with K = diag(k), for the (p+1)
    blocks of the joint covariance V (v21 = v12').
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 1:
        raise ValueError(f"k must be a vector of kappa derivatives, got shape {k.shape}")
    half = len(k)
    for name, block in (("v11", v11), ("v12", v12), ("v22", v22)):
        if np.shape(block) != (half, half):
            raise ValueError(f"{name} must be {half}x{half} to match k, got shape {np.shape(block)}")
    kv12 = k[:, None] * v12
    return k[:, None] * v11 * k - kv12 - kv12.T + v22


def test_statistic(discrepancy, w_hat, n_eff):
    """Quadratic form n_eff * d' W^{-1} d.

    Raises ``TestError`` when d or W has non-finite entries (e.g. a kappa
    derivative so large that W overflows), when W is singular, or when the
    form itself overflows.
    """
    d = np.asarray(discrepancy, dtype=np.float64)
    if not (np.isfinite(d).all() and np.isfinite(w_hat).all()):
        raise TestError(
            "the discrepancy or W_hat has non-finite entries (overflow in the "
            "kappa formulas or the moment matrices), so the test statistic is undefined"
        )
    try:
        w_inv = invert(w_hat)
    except SingularMatrixError as exc:
        raise TestError(
            "W_hat is singular to working precision; the data or the null "
            "specification is degenerate (e.g. a kappa derivative of zero), "
            "so the test statistic is undefined"
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        statistic = float(n_eff * d @ w_inv @ d)
    if not math.isfinite(statistic):
        raise TestError(f"the test statistic overflowed to {statistic}")
    return statistic


def _resolve_indices(indices, dim):
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise InputError("subvector test needs a nonempty index set")
    if len(set(idx)) != len(idx):
        raise InputError(f"duplicate indices in {idx}")
    for i in idx:
        if not 1 <= i <= dim:
            raise InputError(f"index {i} outside 1..{dim}")
    return tuple(sorted(idx))


def _run(series, p, null, indices, level):
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level}")
    if null.order != p:
        raise InputError(f"null spec has {null.order + 1} families, expected p+1 = {p + 1}")
    fit = fit_cls(series, p)
    moments = estimate_moment_matrices(fit)
    with np.errstate(over="ignore", invalid="ignore"):  # test_statistic rejects non-finite d or W
        kappa_vals, k, k_warnings = build_K(null, fit.mu_hat)
        w_full = assemble_W(k, moments.v11, moments.v12, moments.v22)
    d_full = kappa_vals - fit.theta_hat

    idx = _resolve_indices(indices, p + 1)
    sel = np.array(idx) - 1
    d = d_full[sel]
    w = w_full[np.ix_(sel, sel)]

    statistic = test_statistic(d, w, fit.n_eff)
    df = len(idx)
    p_value = chi_square_survival(max(statistic, 0.0), df)
    warnings = tuple(fit.warnings) + tuple(k_warnings)
    if statistic < 0.0:
        warnings += (
            f"test statistic {statistic:.6g} is negative because W_hat is indefinite "
            "on the tested components; p-value set to 1 and the null kept",
        )
    return TestResult(
        statistic=statistic,
        df=df,
        p_value=p_value,
        reject=bool(p_value <= level),
        level=level,
        discrepancy=d,
        w_hat=w,
        indices=idx,
        warnings=warnings,
    )


def run_test(series, p, null, level=0.05):
    """Full test of the mean-variance null across all p+1 components.

    Pipeline: CLS fit, plug-in moment matrices, K and W assembly, then the
    chi-square p-value with p+1 degrees of freedom; the null is rejected
    when it is at most the level.
    """
    return _run(series, p, null, range(1, p + 2), level)


def run_subvector_test(series, p, null, indices, level=0.05):
    """Test restricted to a subset of components (1-based positions).

    Positions 1..p select thinning lags, position p+1 the innovation. With
    the full index set this coincides with ``run_test``.
    """
    return _run(series, p, null, indices, level)


def format_test_report(result):
    """Structured text report for a TestResult."""
    lines = [
        "mean-variance relationship test",
        f"  statistic: {result.statistic:.6g}",
        f"  df: {result.df}",
        f"  p_value: {result.p_value:.6g}",
        f"  reject: {'true' if result.reject else 'false'}",
        f"  level: {result.level:g}",
        f"  indices: {','.join(str(i) for i in result.indices)}",
        f"  discrepancy: {'  '.join(f'{x:.6g}' for x in result.discrepancy)}",
    ]
    if result.warnings:
        lines.append("  warnings:")
        lines.extend(f"    - {w}" for w in result.warnings)
    else:
        lines.append("  warnings: none")
    return "\n".join(lines)
