"""Acceptance suite: one test per exit criterion, each recording a summary line.

Monte Carlo criteria run the full replication counts with pinned seeds, so
every run reproduces the same rates; the pinned values were verified against
higher-replication runs of the same cells.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from conftest import record_criterion
from ginar.cls import assemble_V_cls, build_regressors, fit_cls
from ginar.dispersion_test import NullSpec, run_subvector_test, run_test
from ginar.distributions import (
    BerG,
    Bernoulli,
    BernoulliKappa,
    Geometric,
    NegBinomial,
    Poisson,
    PoissonKappa,
    ZJExtended,
)
from ginar.montecarlo import ExperimentGrid, run_cell, run_size_experiment
from ginar.numerics import chi_square_quantile, chi_square_survival, invert
from ginar.simulate import GinarModel, SimConfig, sample_path, simulate
from oracles import assemble_V_general

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

BERN_POIS_NULL = NullSpec((BernoulliKappa(), PoissonKappa()))

# Reference rejection rates for the INAR(1) size design
# (Bernoulli(pi) thinning, Poisson(1) innovation, R=1000, level 0.05).
REFERENCE_SIZE = {
    (0.2, 500): 0.066, (0.2, 1000): 0.070, (0.2, 2000): 0.059,
    (0.3, 500): 0.070, (0.3, 1000): 0.062, (0.3, 2000): 0.050,
    (0.4, 500): 0.093, (0.4, 1000): 0.063, (0.4, 2000): 0.057,
    (0.5, 500): 0.087, (0.5, 1000): 0.065, (0.5, 2000): 0.056,
    (0.6, 500): 0.086, (0.6, 1000): 0.054, (0.6, 2000): 0.059,
    (0.7, 500): 0.076, (0.7, 1000): 0.070, (0.7, 2000): 0.070,
    (0.8, 500): 0.090, (0.8, 1000): 0.075, (0.8, 2000): 0.075,
}

SIZE_MASTER_SEED = 0
# sha256 of criterion 1's CSV table: a moved cell fails the criterion, not
# only its summary line
SIZE_TABLE_SHA256 = "933575e4b0014c30bebf2dfcfc6705f1a4b283b5af65a23fde1ab0722aeb1f54"
POWER_CELL_SEEDS = {1: 100, 2: 101, 3: 102, 4: 103}
PERCENTILE_SEED = 302


def check(name, passed, detail=""):
    record_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


def test_criterion_1_empirical_size_grid():
    grid = ExperimentGrid(
        pi_values=tuple(sorted({pi for pi, _ in REFERENCE_SIZE})),
        xi_values=(0.0,),
        n_values=(500, 1000, 2000),
        replications=1000,
        burn_in=1000,
        level=0.05,
        master_seed=SIZE_MASTER_SEED,
    )
    table = run_size_experiment(grid)
    deviations = {}
    failures = 0
    for row in table.rows:
        deviations[(row.pi, row.n)] = abs(row.rate - REFERENCE_SIZE[(row.pi, row.n)])
        failures += row.failures
    worst_cell = max(deviations, key=deviations.get)
    worst = deviations[worst_cell]
    sha = hashlib.sha256(table.csv_text().encode()).hexdigest()
    check(
        "criterion 1: empirical size across the null grid (tolerance 0.03)",
        worst <= 0.03 and failures == 0 and sha == SIZE_TABLE_SHA256,
        f"worst |rate - reference| = {worst:.4f} at (pi, n) = {worst_cell}, failures = {failures}, "
        f"table sha256 {sha}",
    )


def test_criterion_2_empirical_power_spot_checks():
    cells = [
        # (pi, xi, n, reference, tolerance); tolerance None means rate >= reference
        (1, 0.2, 0.3, 500, 0.903, 0.04),
        (2, 0.3, 0.3, 1000, 0.99, None),
        (3, 0.6, 0.1, 2000, 0.987, 0.03),
        (4, 0.2, 0.05, 500, 0.061, 0.03),
    ]
    details = []
    all_ok = True
    for key, pi, xi, n, ref, tol in cells:
        rejections, fails = run_cell(
            pi, xi, n, 1000, 1000, 0.05, cell_seed=POWER_CELL_SEEDS[key]
        )
        rate = rejections / (1000 - fails)
        ok = rate >= ref if tol is None else abs(rate - ref) <= tol
        all_ok &= ok and fails == 0
        details.append(f"(pi={pi},xi={xi},n={n}): {rate:.3f} vs {ref}")
    check(
        "criterion 2: empirical power spot checks",
        all_ok,
        "; ".join(details),
    )


def test_criterion_3_null_statistic_percentiles():
    model = GinarModel(counting=(Bernoulli(0.3),), innovation=Poisson(1.0))
    stats = np.empty(1000)
    for k in range(1000):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(PERCENTILE_SEED, spawn_key=(k,)))
        )
        series = sample_path(model, 2000, 1000, rng)
        stats[k] = run_test(series, 1, BERN_POIS_NULL, 0.05).statistic
    # chi-square(2) reference quantiles: -2*ln(1-q)
    refs = {0.90: 4.605, 0.95: 5.991, 0.99: 9.210}
    errors = {q: abs(np.quantile(stats, q) - ref) / ref for q, ref in refs.items()}
    worst_q = max(errors, key=errors.get)
    check(
        "criterion 3: null-statistic percentiles vs chi-square(2) (10% relative)",
        errors[worst_q] <= 0.10,
        "rel errors " + ", ".join(f"q{int(q * 100)}={e:.3f}" for q, e in sorted(errors.items())),
    )


def test_criterion_4_closed_form_vs_optimizer():
    rng = np.random.default_rng(505)
    worst = 0.0
    for idx in range(20):
        n = int(rng.integers(50, 501))
        pi = float(rng.uniform(0.15, 0.55))
        model = GinarModel(counting=(Bernoulli(pi),), innovation=Poisson(1.0))
        series = simulate(model, SimConfig(n=n, burn_in=500, seed=9000 + idx))
        y, x = build_regressors(series, 1)

        def optimize(objective):
            best = minimize(
                objective,
                np.array([0.5, 0.5]),
                method="Nelder-Mead",
                options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 20_000, "maxfev": 40_000},
            )
            return best.x

        fit = fit_cls(series, 1)
        mu_hat = fit.mu_hat
        mu_opt = optimize(lambda mu: np.sum((y - x @ mu) ** 2))
        worst = max(worst, float(np.max(np.abs(mu_hat - mu_opt))))

        theta_hat = fit.theta_hat
        resid_sq = (y - x @ mu_hat) ** 2
        theta_opt = optimize(lambda th: np.sum((resid_sq - x @ th) ** 2))
        worst = max(worst, float(np.max(np.abs(theta_hat - theta_opt))))
    check(
        "criterion 4: closed forms match numeric minimization (1e-6)",
        worst <= 1e-6,
        f"worst per-component gap over 20 series = {worst:.2e}",
    )


def test_criterion_5_sampler_moment_suite():
    families = [
        Bernoulli(0.3),
        Poisson(1.0),
        NegBinomial(2.0, 0.4),
        Geometric(0.35),
        ZJExtended(0.5, 0.5),
        BerG(0.2, 0.1),
    ]
    n = 1_000_000
    worst = 0.0
    all_ok = True
    for dist in families:
        rng = np.random.default_rng(606)
        draws = dist.sample_array(n, rng).astype(np.float64)
        mean_se = draws.std() / np.sqrt(n)
        mean_dev = abs(draws.mean() - dist.mean) / mean_se
        m4 = np.mean((draws - draws.mean()) ** 4)
        var_se = np.sqrt(max(m4 - draws.var() ** 2, 1e-12) / n)
        var_dev = abs(draws.var() - dist.variance) / var_se
        worst = max(worst, mean_dev, var_dev)
        all_ok &= mean_dev < 5.0 and var_dev < 5.0
    check(
        "criterion 5: sampler moments within 5 SE over 1e6 draws",
        all_ok,
        f"worst deviation = {worst:.2f} SE across {len(families)} families",
    )


def test_criterion_6_covariance_assembly_equivalence():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(50):
        dim = 2 if trial % 2 == 0 else 3
        def random_pd():
            a = rng.normal(size=(dim, dim))
            return a @ a.T + dim * np.eye(dim)
        jm = random_pd()
        im = random_pd()
        iv = random_pd()
        imv = rng.normal(size=(dim, dim))
        v11, v12, v22 = assemble_V_cls(invert(jm), im, imv, iv)
        direct = np.block([[v11, v12], [v12.T, v22]])
        general = assemble_V_general(jm, jm.copy(), np.zeros((dim, dim)), im, imv, iv)
        worst = max(worst, float(np.max(np.abs(direct - general))))
    check(
        "criterion 6: covariance assembly paths agree when the cross block vanishes (1e-12)",
        worst <= 1e-12,
        f"worst entrywise gap over 50 random positive-definite inputs = {worst:.2e}",
    )


def test_criterion_7_chi_square_numerics():
    worst_round_trip = 0.0
    for df in (1, 2, 3):
        for q in (0.5, 0.9, 0.95, 0.99):
            x = chi_square_quantile(q, df)
            worst_round_trip = max(worst_round_trip, abs(chi_square_survival(x, df) - (1.0 - q)))
    worst_df2 = max(
        abs(chi_square_survival(x, 2) - np.exp(-x / 2.0)) for x in np.linspace(0.0, 40.0, 801)
    )
    check(
        "criterion 7: chi-square survival/quantile numerics",
        worst_round_trip <= 1e-8 and worst_df2 <= 1e-10,
        f"round-trip gap {worst_round_trip:.2e}, df=2 analytic gap {worst_df2:.2e}",
    )


def _printed_tolerance(printed):
    # half a unit in the last printed decimal place
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return 0.5 * 10.0 ** (-decimals)


def _require_close_to_printed(value, printed):
    assert abs(value - float(printed)) <= _printed_tolerance(printed), (
        f"{value:.6g} does not round to the published {printed}"
    )


def test_criterion_8_external_datasets():
    skin_path = DATA_DIR / "skin_lesions.csv"
    anorexia_path = DATA_DIR / "anorexia.csv"
    if not (skin_path.exists() and anorexia_path.exists()):
        record_criterion(
            "criterion 8: external dataset reproduction",
            True,
            "SKIPPED: optional datasets not present (expected data/skin_lesions.csv "
            "and data/anorexia.csv; see data/README.md)",
        )
        pytest.skip(
            "optional external datasets not present: place the monthly skin-lesions "
            "and anorexia count series (84 observations each) at data/skin_lesions.csv "
            "and data/anorexia.csv to enable this check"
        )

    from ginar.simulate import read_series

    expectations = [
        (skin_path, ("0.325", "0.964"), ("0.841", "1.97"), "0.182"),
        (anorexia_path, ("0.680", "0.263"), ("2.40", "0.102"), "0.00277"),
    ]
    details = []
    for path, mu_printed, theta_printed, p_printed in expectations:
        series = read_series(path)
        assert len(series) == 84
        fit = fit_cls(series, 1)
        for value, printed in zip(fit.mu_hat, mu_printed):
            _require_close_to_printed(value, printed)
        for value, printed in zip(fit.theta_hat, theta_printed):
            _require_close_to_printed(value, printed)
        result = run_subvector_test(series, 1, BERN_POIS_NULL, (1,), 0.05)
        # three significant figures on the p-value
        assert_allclose(result.p_value, float(p_printed), rtol=5e-3)
        details.append(f"{path.name}: p={result.p_value:.3g}")
    check("criterion 8: external dataset reproduction", True, "; ".join(details))
