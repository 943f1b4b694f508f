"""Chi-square test of a hypothesized mean-variance relationship.

The null states that each counting sequence and the innovation come from
families whose variance is a known function kappa of the mean, so the
vector kappa(mu_0) - theta_0 is zero. The statistic

    T = n_eff * (kappa(mu_hat) - theta_hat)' W_hat^{-1} (kappa(mu_hat) - theta_hat)

is asymptotically chi-square with p+1 degrees of freedom under the null,
where W_hat is the delta-method covariance of the discrepancy,

    W = K v11 K - K v12 - v21 K + v22,

built from the blocks of the estimators' joint covariance V and the
diagonal matrix K of kappa derivatives at mu_hat. W_hat^{-1} is never formed:
T = n_eff * sum_i (q_i'd)^2 / lambda_i over the eigenpairs of W_hat from
``numerics.eigh_batch``. A subvector variant restricts the discrepancy and
W to selected components (e.g. thinning lags only), with degrees of freedom
equal to the number of tested components.

Every test runs as a stack, one series as a block of one, and ``_run`` gives
each row one code: KEEP, REJECT, NEGATIVE (T < 0, null kept) or a failure,
SINGULAR_GRAM, NONFINITE, SINGULAR_W (by its eigenvalues, or W_hat cancelled to
``EIG_RTOL`` times its scale) or OVERFLOW. A block (R, n) gets a ``BlockResult``,
each row bit for bit its series alone; one series a ``TestResult`` or ``TestError``.
"""

from dataclasses import dataclass

import numpy as np

from .cls import estimate_moment_matrices, fit_cls
from .distributions import KappaFamily, parse_kappa
from .errors import InputError, TestError, require_int, require_level
from .numerics import EIG_RTOL, chi_square_survival, eigh_batch

__all__ = [
    "NullSpec",
    "TestResult",
    "BlockResult",
    "build_K",
    "assemble_W",
    "quadratic_forms",
    "run_test",
    "run_subvector_test",
    "parse_null",
]


# Outcome codes of a block's rows; SINGULAR_GRAM and above are failures.
KEEP, REJECT, NEGATIVE, SINGULAR_GRAM, NONFINITE, SINGULAR_W, OVERFLOW = range(7)

_TEST_ERRORS = {
    NONFINITE: "the discrepancy or W_hat has non-finite entries (overflow in the kappa formulas or the moment "
    "matrices), so the test statistic is undefined",
    SINGULAR_W: "W_hat is singular to working precision; the data or the null specification is degenerate "
    "(e.g. a kappa derivative of zero), so the test statistic is undefined",
    OVERFLOW: "the test statistic overflowed to {statistic}",
}


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


@dataclass(frozen=True)
class BlockResult:
    """Per-row outcome of a block test (module notes); NaN where a row failed."""

    statistics: np.ndarray
    p_values: np.ndarray
    outcomes: np.ndarray
    df: int
    level: float
    indices: tuple


def build_K(null, mu_hat):
    """kappa(mu_hat), the diagonal of K = diag(kappa'(mu_hat)) and the
    admissibility warnings, in one pass over the null.

    Components outside a family's admissible range are evaluated by the
    smooth extension of the formula and reported in the returned warnings
    rather than raised, so boundary-ish estimates do not abort a run. A
    block of estimates gets no warnings.
    """
    mu_hat = np.asarray(mu_hat, dtype=np.float64)
    if mu_hat.shape[-1:] != (len(null.kappas),):
        raise ValueError(f"mu_hat has shape {mu_hat.shape}, null expects {len(null.kappas)} components")
    warnings = []
    values = np.empty_like(mu_hat)
    k = np.empty_like(mu_hat)
    # .T[i] is component i: a scalar of one estimate, a column of a block
    for i, (kappa, mu) in enumerate(zip(null.kappas, mu_hat.T)):
        if mu_hat.ndim == 1 and not kappa.admissible(mu):
            warnings.append(
                f"estimated mean {mu:.6g} at position {i + 1} is outside the "
                f"admissible range (0, {kappa.upper:g}) of the {kappa.name} kappa "
                "family; formulas evaluated by smooth extension"
            )
        values.T[i] = kappa.value(mu)
        k.T[i] = kappa.derivative(mu)
    return values, k, warnings


def assemble_W(k, v11, v12, v22):
    """Delta-method covariance W of kappa(mu_hat) - theta_hat, and its scale.

    W = K v11 K - K v12 - v21 K + v22 with K = diag(k), for the (p+1) blocks of the joint covariance V
    (v21 = v12'), or per row of stacks; its scale |K v11 K| + |K v12| + |v21 K| + |v22| sums their magnitudes.
    """
    k = np.asarray(k, dtype=np.float64)
    shape = k.shape + k.shape[-1:]
    for name, block in (("v11", v11), ("v12", v12), ("v22", v22)):
        if np.asarray(block).shape != shape:
            raise ValueError(f"{name} must have shape {shape} to match k, got shape {np.shape(block)}")
    column = k[..., :, None]
    kv11k, kv12 = column * v11 * k[..., None, :], column * v12
    a12 = np.abs(kv12)
    return kv11k - kv12 - kv12.swapaxes(-1, -2) + v22, np.abs(kv11k) + a12 + a12.swapaxes(-1, -2) + np.abs(v22)


def quadratic_forms(discrepancies, w_hats, n_eff):
    """Quadratic forms n_eff * sum_i (q_i'd)^2 / lambda_i of (R, m) d and (R, m, m) symmetric W with eigenpairs
    (lambda_i, q_i), and per row a failure code, 0 if none: NONFINITE (e.g. a kappa derivative so large
    that W overflows), SINGULAR_W or OVERFLOW."""
    d = np.asarray(discrepancies, dtype=np.float64)
    w = np.asarray(w_hats, dtype=np.float64)
    finite = np.isfinite(np.concatenate((d, w.reshape(len(w), -1)), axis=1)).all(axis=1)
    if not finite.all():  # finite stand-ins, for the eigendecomposition
        d = np.where(finite[:, None], d, 0.0)
        w = np.where(finite[:, None, None], w, np.eye(w.shape[-1]))
    eigenvalues, q, singular = eigh_batch(w)
    qd = (d[:, None, :] @ q)[:, 0, :]  # q_i'd, one column i per eigenvector
    with np.errstate(over="ignore", invalid="ignore"):
        statistics = ((n_eff * qd / eigenvalues)[:, None, :] @ qd[:, :, None])[:, 0, 0]
    causes = np.where(np.isfinite(statistics), 0, OVERFLOW)
    causes[singular] = SINGULAR_W
    causes[~finite] = NONFINITE
    return statistics, causes


def _resolve_indices(indices, dim):
    idx = tuple(indices)
    if not idx:
        raise InputError("subvector test needs a nonempty index set")
    for i in idx:
        require_int("index", i, 1, dim + 1)
    if len(set(idx)) != len(idx):
        raise InputError(f"duplicate indices in {idx}")
    return tuple(sorted(int(i) for i in idx))


def _run(series, p, null, indices, level):
    require_level(level)
    if null.order != p:
        raise InputError(f"null spec has {null.order + 1} families, expected p+1 = {p + 1}")
    idx = tuple(range(1, null.order + 2)) if indices is None else _resolve_indices(indices, p + 1)
    df = len(idx)
    fit = fit_cls(series, p)
    moments = estimate_moment_matrices(fit)
    with np.errstate(over="ignore", invalid="ignore"):  # quadratic_forms flags non-finite d or W
        kappa_vals, k, k_warnings = build_K(null, fit.mu_hat)
        w, scale = assemble_W(k, moments.v11, moments.v12, moments.v22)
    d = kappa_vals - fit.theta_hat
    if df < p + 1:
        sel = np.array(idx) - 1
        d, w, scale = d[..., sel], w[..., sel[:, None], sel], scale[..., sel[:, None], sel]
    statistics, outcomes = quadratic_forms(d.reshape(-1, df), w.reshape(-1, df, df), fit.n_eff)
    if fit.singular_gram is not None:
        outcomes[fit.singular_gram] = SINGULAR_GRAM
    cancelled = np.abs(w).reshape(len(outcomes), -1).max(1) <= EIG_RTOL * scale.reshape(len(outcomes), -1).max(1)
    p_values, codes = [], []
    for statistic, code, cancel in zip(statistics.tolist(), outcomes.tolist(), cancelled.tolist()):
        code = SINGULAR_W if cancel and code in (KEEP, OVERFLOW) else code
        p_values.append(np.nan if code else chi_square_survival(max(statistic, 0.0), df))
        codes.append(code or (NEGATIVE if statistic < 0.0 else REJECT if p_values[-1] <= level else KEEP))
    if fit.singular_gram is not None:
        outcomes = np.array(codes)
        statistics[outcomes >= SINGULAR_GRAM] = np.nan
        return BlockResult(statistics, np.array(p_values), outcomes, df, level, idx)
    (code,), (statistic,) = codes, statistics.tolist()
    if code >= SINGULAR_GRAM:
        raise TestError(_TEST_ERRORS[code].format(statistic=statistic))
    warnings = tuple(fit.warnings) + tuple(k_warnings)
    if code == NEGATIVE:
        warnings += (
            f"test statistic {statistic:.6g} is negative because W_hat is indefinite "
            "on the tested components; p-value set to 1 and the null kept",
        )
    return TestResult(statistic, df, p_values[0], code == REJECT, level, d, w, idx, warnings)


def run_test(series, p, null, level=0.05):
    """Full test of the mean-variance null across all p+1 components.

    Pipeline: CLS fit, plug-in moment matrices, K and W assembly, then the
    chi-square p-value with p+1 degrees of freedom; the null is rejected
    when it is at most the level. A block of series gives a ``BlockResult``.
    """
    return _run(series, p, null, None, level)


def run_subvector_test(series, p, null, indices, level=0.05):
    """Test restricted to a subset of components (1-based positions).

    Positions 1..p select thinning lags, position p+1 the innovation. With
    the full index set this coincides with ``run_test``.
    """
    return _run(series, p, null, tuple(indices), level)

