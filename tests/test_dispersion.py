import numpy as np
import pytest
from numpy.testing import assert_allclose

from ginar import cls, dispersion_test, errors, numerics
from ginar.cli import format_report
from ginar.dispersion_test import (
    NullSpec,
    assemble_W,
    build_K,
    parse_null,
    quadratic_forms,
    run_subvector_test,
    run_test,
)
from ginar.distributions import BerG, Bernoulli, BernoulliKappa, Poisson, PoissonKappa
from ginar.errors import InputError
from ginar.numerics import chi_square_quantile, chi_square_survival
from ginar.simulate import GinarModel, SimConfig, simulate

BERN_POIS_NULL = NullSpec((BernoulliKappa(), PoissonKappa()))


def h0_series(n, seed):
    model = GinarModel(counting=(Bernoulli(0.3),), innovation=Poisson(1.0))
    return simulate(model, SimConfig(n=n, burn_in=1000, seed=seed))


def alt_series(n, seed, pi=0.2, xi=0.3):
    model = GinarModel(counting=(BerG(pi, xi),), innovation=Poisson(1.0))
    return simulate(model, SimConfig(n=n, burn_in=1000, seed=seed))


class TestNullSpec:
    def test_order(self):
        assert BERN_POIS_NULL.order == 1

    def test_needs_two_families(self):
        with pytest.raises(ValueError):
            NullSpec((PoissonKappa(),))

    def test_parse(self):
        assert parse_null("bernoulli,poisson", p=1) == BERN_POIS_NULL
        spec = parse_null("negbinomial(r=2),bernoulli,poisson")
        assert spec.order == 2

    def test_parse_count_mismatch(self):
        with pytest.raises(InputError):
            parse_null("bernoulli,poisson", p=2)


class TestBuildK:
    def test_bernoulli_poisson_null(self):
        values, k, warnings = build_K(BERN_POIS_NULL, np.array([0.3, 1.0]))
        assert_allclose(values, [0.21, 1.0])
        assert_allclose(k, [0.4, 1.0])
        assert warnings == []

    def test_poisson_only_null_is_identity(self):
        null = NullSpec((PoissonKappa(), PoissonKappa()))
        values, k, _ = build_K(null, np.array([0.5, 2.0]))
        assert_allclose(values, [0.5, 2.0])
        assert_allclose(k, np.ones(2))

    def test_vanishing_derivative_at_half(self):
        _, k, _ = build_K(BERN_POIS_NULL, np.array([0.5, 1.0]))
        assert k[0] == 0.0

    def test_out_of_range_mean_warns_and_proceeds(self):
        values, k, warnings = build_K(BERN_POIS_NULL, np.array([1.2, 1.0]))
        assert_allclose(values[0], 1.2 * (1.0 - 1.2))
        assert_allclose(k[0], 1.0 - 2.4)
        assert len(warnings) == 1
        assert "admissible range" in warnings[0]
        assert "bernoulli" in warnings[0]
        assert "(0, 1)" in warnings[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_K(BERN_POIS_NULL, np.array([0.3, 1.0, 2.0]))


def blocks(v):
    half = v.shape[0] // 2
    return v[:half, :half], v[:half, half:], v[half:, half:]


class TestAssembleW:
    def test_identity_K(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(4, 4))
        v = v @ v.T + 4.0 * np.eye(4)
        w, scale = assemble_W(np.ones(2), *blocks(v))
        expected = v[:2, :2] - v[:2, 2:] - v[2:, :2] + v[2:, 2:]
        assert_allclose(w, expected)
        assert_allclose(scale, np.abs(v[:2, :2]) + np.abs(v[:2, 2:]) + np.abs(v[2:, :2]) + np.abs(v[2:, 2:]))

    def test_zero_K_leaves_v22(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 4))
        v = v @ v.T + 4.0 * np.eye(4)
        w, scale = assemble_W(np.zeros(2), *blocks(v))
        assert_allclose(w, v[2:, 2:])
        assert_allclose(scale, np.abs(v[2:, 2:]))

    def test_matches_diagonal_matrix_form(self):
        # the elementwise forms equal K v11 K - K v12 - v21 K + v22 and the sum of its terms' magnitudes bit
        # for bit
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            k = rng.normal(size=dim)
            v = rng.normal(size=(2 * dim, 2 * dim))
            v = v @ v.T
            v11, v12, v22 = blocks(v)
            K = np.diag(k)
            expected = K @ v11 @ K - K @ v12 - v[dim:, :dim] @ K + v22
            scale = np.abs(K @ v11 @ K) + np.abs(K @ v12) + np.abs(v[dim:, :dim] @ K) + np.abs(v22)
            w, w_scale = assemble_W(k, v11, v12, v22)
            assert np.array_equal(w, expected) and np.array_equal(w_scale, scale)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_W(np.ones(2), np.eye(3), np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            assemble_W(np.eye(2), np.eye(2), np.eye(2), np.eye(2))

    def test_scalar_delta_method_oracle(self):
        # i.i.d. Poisson(2) with the Poisson kappa: the discrepancy is
        # mean - variance, whose asymptotic variance is 2*lambda^2 = 8;
        # check assembled W against the Monte Carlo variance within 15%
        lam, n, reps = 2.0, 2000, 1000
        rng = np.random.default_rng(45)
        disc = np.empty(reps)
        w_sum = 0.0
        for k in range(reps):
            x = rng.poisson(lam, size=n).astype(np.float64)
            mu_hat = x.mean()
            resid = x - mu_hat
            theta_hat = np.mean(resid**2)
            v11 = theta_hat  # jm = 1, im = fitted variance
            v12 = np.mean(resid**3)
            v22 = np.mean(resid**4 - theta_hat**2)
            w, _ = assemble_W(np.ones(1), [[v11]], [[v12]], [[v22]])  # kappa' = 1 for Poisson
            w_sum += w[0, 0]
            disc[k] = np.sqrt(n) * (mu_hat - theta_hat)
        empirical = disc.var(ddof=1)
        averaged = w_sum / reps
        assert abs(averaged - empirical) / empirical < 0.15
        assert abs(empirical - 2.0 * lam**2) / (2.0 * lam**2) < 0.15


def quadratic_form(d, w, n_eff):
    """``quadratic_forms`` on a stack of one: the statistic and its failure code."""
    statistics, causes = quadratic_forms(np.asarray(d, dtype=np.float64)[None], np.asarray(w)[None], n_eff)
    return statistics[0], causes[0]


class TestStatistic:
    """``quadratic_forms`` row by row; ``run_test`` raises ``TestError`` on each failure code."""

    def test_zero_discrepancy(self):
        assert quadratic_form(np.zeros(2), np.eye(2), 500) == (0.0, 0)

    def test_unit_case(self):
        statistic, cause = quadratic_form(np.array([1.0, 0.0]), np.eye(2), 100)
        assert_allclose(statistic, 100.0)
        assert cause == 0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dim = rng.integers(1, 5)
            d = rng.normal(size=dim)
            a = rng.normal(size=(dim, dim))
            w = a @ a.T + dim * np.eye(dim)
            w_inv = np.linalg.inv(w)
            expected = 0.0
            for i in range(dim):
                for j in range(dim):
                    expected += d[i] * w_inv[i, j] * d[j]
            expected *= 321
            statistic, cause = quadratic_form(d, w, 321)
            assert_allclose(statistic, expected, atol=1e-10 * abs(expected))
            assert cause == 0

    def test_singular_w_is_test_error(self):
        assert quadratic_form(np.ones(2), np.ones((2, 2)), 100)[1] == dispersion_test.SINGULAR_W

    @pytest.mark.parametrize(
        "d,w,code",
        [
            ([np.nan, 0.0], np.eye(2), dispersion_test.NONFINITE),
            ([1.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]], dispersion_test.NONFINITE),
            # diag(1e-200, 1) would be singular by its eigenvalue ratio; 1e-200 * I is regular
            ([1e200, 0.0], [[1e-200, 0.0], [0.0, 1e-200]], dispersion_test.OVERFLOW),
        ],
        ids=["nan-discrepancy", "inf-w", "overflowing-form"],
    )
    def test_non_finite_is_test_error(self, d, w, code):
        assert quadratic_form(np.array(d), np.array(w), 100)[1] == code

    def test_zero_statistic_never_rejects(self):
        # discrepancy exactly zero: T = 0, p-value 1, keep at any level
        assert chi_square_survival(0.0, 2) == 1.0
        assert 0.0 < chi_square_quantile(0.95, 2)


def assert_decision_rule(result):
    quantile = chi_square_quantile(1.0 - result.level, result.df)
    assert result.reject == (result.p_value <= result.level) == (result.statistic >= quantile)


class TestRunTest:
    def test_result_invariants(self):
        result = run_test(h0_series(2000, 71), 1, BERN_POIS_NULL, 0.05)
        assert result.df == 2
        assert result.statistic >= 0.0
        assert not any("negative" in w for w in result.warnings)
        assert_allclose(result.p_value, chi_square_survival(result.statistic, 2))
        assert_decision_rule(result)
        assert result.indices == (1, 2)
        assert len(result.discrepancy) == 2
        assert result.w_hat.shape == (2, 2)

        # p = 2: two Bernoulli lags and a Poisson innovation, then a subvector test
        model = GinarModel(counting=(Bernoulli(0.3), Bernoulli(0.2)), innovation=Poisson(1.0))
        series2 = simulate(model, SimConfig(n=2000, burn_in=1000, seed=72))
        null2 = NullSpec((BernoulliKappa(), BernoulliKappa(), PoissonKappa()))
        result2 = run_test(series2, 2, null2, 0.05)
        assert result2.df == 3
        assert result2.indices == (1, 2, 3)
        assert_allclose(result2.p_value, chi_square_survival(max(result2.statistic, 0.0), 3))
        assert_decision_rule(result2)

        sub = run_subvector_test(series2, 2, null2, (1, 3), 0.10)
        assert sub.df == 2
        assert sub.indices == (1, 3)
        assert sub.w_hat.shape == (2, 2)
        assert_allclose(sub.p_value, chi_square_survival(max(sub.statistic, 0.0), 2))
        assert_decision_rule(sub)

    def test_single_pass(self, monkeypatch):
        # one test, on one series or on a block of 25, builds the regressors
        # once and makes exactly two stacked eigendecompositions: the Gram
        # matrices (shared by both CLS stages and V) and W
        calls = {"build_regressors": 0, "eigh_batch": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cls, "build_regressors", counting("build_regressors", cls.build_regressors))
        wrapped = counting("eigh_batch", numerics.eigh_batch)
        for module in (numerics, cls, dispersion_test):
            monkeypatch.setattr(module, "eigh_batch", wrapped)
        for series in (h0_series(500, 75), np.stack([h0_series(500, 75 + r) for r in range(25)])):
            calls.update(build_regressors=0, eigh_batch=0)
            run_test(series, 1, BERN_POIS_NULL, 0.05)
            assert calls == {"build_regressors": 1, "eigh_batch": 2}

    def test_detects_overdispersed_thinning(self):
        result = run_test(alt_series(2000, 73), 1, BERN_POIS_NULL, 0.05)
        assert result.reject
        assert result.p_value < 0.01

    def test_keeps_null_on_h0_data(self):
        result = run_test(h0_series(2000, 79), 1, BERN_POIS_NULL, 0.05)
        assert not result.reject

    def test_statistic_nonnegative_when_w_positive_definite(self):
        for seed in range(20):
            result = run_test(h0_series(500, 100 + seed), 1, BERN_POIS_NULL, 0.05)
            if np.all(np.linalg.eigvalsh(result.w_hat) > 0.0):
                assert result.statistic >= 0.0

    def test_monotone_decision_in_level(self):
        for seed in range(15):
            series = h0_series(500, 300 + seed)
            at_5 = run_test(series, 1, BERN_POIS_NULL, 0.05)
            at_10 = run_test(series, 1, BERN_POIS_NULL, 0.10)
            if at_5.reject:
                assert at_10.reject

    def test_negative_statistic_keeps_null_with_warning(self):
        # W_hat is indefinite for this short series, so T < 0
        model = GinarModel(counting=(Bernoulli(0.8),), innovation=Poisson(1.0))
        series = simulate(model, SimConfig(n=50, burn_in=1000, seed=9))
        result = run_test(series, 1, BERN_POIS_NULL, 0.05)
        assert result.statistic < 0.0
        assert np.min(np.linalg.eigvalsh(result.w_hat)) < 0.0
        assert result.p_value == 1.0
        assert not result.reject
        assert any(f"{result.statistic:.6g} is negative" in w for w in result.warnings)

    def test_null_order_mismatch(self):
        with pytest.raises(InputError):
            run_test(h0_series(100, 83), 2, BERN_POIS_NULL, 0.05)

    def test_bad_level(self):
        with pytest.raises(InputError):
            run_test(h0_series(100, 89), 1, BERN_POIS_NULL, 1.0)

    def test_out_of_range_innovation_mean_warns(self):
        # Poisson(2) innovations push mu_eps_hat ~ 2, outside the Bernoulli
        # kappa range; the test warns and still returns a decision
        model = GinarModel(counting=(Bernoulli(0.3),), innovation=Poisson(2.0))
        series = simulate(model, SimConfig(n=2000, burn_in=1000, seed=97))
        null = NullSpec((BernoulliKappa(), BernoulliKappa()))
        result = run_test(series, 1, null, 0.05)
        assert any("admissible range" in w for w in result.warnings)
        assert np.isfinite(result.statistic)


class TestSubvector:
    def test_full_set_matches_run_test(self):
        series = h0_series(1000, 101)
        full = run_test(series, 1, BERN_POIS_NULL, 0.05)
        sub = run_subvector_test(series, 1, BERN_POIS_NULL, (1, 2), 0.05)
        assert abs(full.statistic - sub.statistic) < 1e-10
        assert full.df == sub.df

    def test_thinning_only_df_one(self):
        result = run_subvector_test(h0_series(1000, 103), 1, BERN_POIS_NULL, (1,), 0.05)
        assert result.df == 1
        assert result.indices == (1,)
        assert len(result.discrepancy) == 1
        assert result.w_hat.shape == (1, 1)
        assert_allclose(result.p_value, chi_square_survival(result.statistic, 1))

    def test_subvector_uses_principal_submatrix(self):
        series = h0_series(1000, 107)
        full = run_test(series, 1, BERN_POIS_NULL, 0.05)
        sub = run_subvector_test(series, 1, BERN_POIS_NULL, (2,), 0.05)
        assert_allclose(sub.w_hat[0, 0], full.w_hat[1, 1])
        assert_allclose(sub.discrepancy[0], full.discrepancy[1])

    @pytest.mark.parametrize("indices", [(), (0,), (3,), (1, 1), (1.7,), (2.9,), (True,), ("2",)])
    def test_bad_indices(self, indices):
        with pytest.raises(InputError):
            run_subvector_test(h0_series(100, 109), 1, BERN_POIS_NULL, indices, 0.05)

    def test_numpy_integer_indices(self):
        series = h0_series(100, 109)
        result = run_subvector_test(series, 1, BERN_POIS_NULL, (np.int64(2), np.uint8(1)), 0.05)
        assert result.indices == (1, 2) and all(type(i) is int for i in result.indices)
        assert result.statistic == run_test(series, 1, BERN_POIS_NULL, 0.05).statistic


class TestReport:
    def test_report_fields(self):
        result = run_test(h0_series(500, 113), 1, BERN_POIS_NULL, 0.05)
        report = format_report(result)
        for token in ("statistic", "df", "p_value", "reject", "level", "discrepancy", "warnings"):
            assert token in report

    def test_block_results_have_no_report(self):
        block = np.stack([h0_series(100, seed) for seed in (1, 2, 3)])
        for result in (cls.fit_cls(block, 1), run_test(block, 1, BERN_POIS_NULL, 0.05)):
            for form in ("text", "json"):
                with pytest.raises(TypeError, match="block result"):
                    format_report(result, form)

    @pytest.mark.parametrize("form", ["JSON", "yaml"])
    def test_unknown_form_is_refused(self, form):
        series = h0_series(100, 1)
        for result in (cls.fit_cls(series, 1), run_test(series, 1, BERN_POIS_NULL, 0.05)):
            with pytest.raises(ValueError, match="'text' or 'json'"):
                format_report(result, form)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


# p = 2 counts whose W_hat cancels to rounding noise under bernoulli,bernoulli,poisson
CANCELLED = np.array([1, 1, 1, 1, 1, 0, 0, 1])


def negative_series():
    # W_hat is indefinite for this short series, so T < 0
    model = GinarModel(counting=(Bernoulli(0.8),), innovation=Poisson(1.0))
    return simulate(model, SimConfig(n=50, burn_in=1000, seed=9))


# series, order, null and the outcome code of each: together every code a series reaches
ONE_SERIES = {
    "keep": (lambda: h0_series(2000, 79), 1, "bernoulli,poisson", dispersion_test.KEEP),
    "reject": (lambda: alt_series(2000, 73), 1, "bernoulli,poisson", dispersion_test.REJECT),
    "negative": (negative_series, 1, "bernoulli,poisson", dispersion_test.NEGATIVE),
    "constant": (lambda: np.full(50, 3), 1, "bernoulli,poisson", dispersion_test.SINGULAR_GRAM),
    "alternating": (lambda: np.array([0, 1] * 10), 1, "bernoulli,poisson", dispersion_test.SINGULAR_W),
    "overflowing-w": (lambda: h0_series(300, 5), 1, "negbinomial(r=1e-300),poisson", dispersion_test.NONFINITE),
    "cancelled-w": (lambda: CANCELLED, 2, "bernoulli,bernoulli,poisson", dispersion_test.SINGULAR_W),
}


class TestBlock:
    """A block (R, n) runs every stage once over its rows; each row gets the
    numbers of its series tested alone, and failures become outcome codes."""

    def block(self, rows, n=300, seed=500):
        return np.stack([alt_series(n, seed + r) if r % 3 == 0 else h0_series(n, seed + r) for r in range(rows)])

    # the grid's lengths too, where the contiguous products reach BLAS with a long inner dimension
    @pytest.mark.parametrize("p, n", [(1, 300), (1, 2000), (2, 2000), (3, 1000)])
    def test_rows_bitwise_independent_of_block_size(self, p, n):
        if p == 1:
            series = self.block(64, n)
        else:
            model = GinarModel(counting=(Bernoulli(0.3), Bernoulli(0.2), BerG(0.1, 0.1))[:p], innovation=Poisson(1.0))
            series = np.stack([simulate(model, SimConfig(n=n, burn_in=100, seed=600 + r)) for r in range(64)])
        null = NullSpec((BernoulliKappa(),) * p + (PoissonKappa(),))
        for indices in (tuple(range(1, p + 2)), (1,), (p + 1,)):
            whole = run_subvector_test(series, p, null, indices, 0.05)
            for size in (1, 7, 25):
                for start in range(0, 64, size):
                    part = run_subvector_test(series[start : start + size], p, null, indices, 0.05)
                    rows = slice(start, start + size)
                    assert np.array_equal(bits(part.statistics), bits(whole.statistics[rows]))
                    assert np.array_equal(bits(part.p_values), bits(whole.p_values[rows]))
                    assert np.array_equal(part.outcomes, whole.outcomes[rows])

    def test_rows_match_the_single_series_test(self):
        series = self.block(12)
        result = run_test(series, 1, BERN_POIS_NULL, 0.05)
        assert result.df == 2 and result.indices == (1, 2)
        for row, outcome, statistic, p_value in zip(series, result.outcomes, result.statistics, result.p_values):
            alone = run_test(row, 1, BERN_POIS_NULL, 0.05)
            assert statistic == alone.statistic and p_value == alone.p_value
            assert outcome == (dispersion_test.REJECT if alone.reject else dispersion_test.KEEP)
        assert np.count_nonzero(result.outcomes == dispersion_test.REJECT) > 0

    def test_order_two_block(self):
        model = GinarModel(counting=(Bernoulli(0.3), Bernoulli(0.2)), innovation=Poisson(1.0))
        series = np.stack([simulate(model, SimConfig(n=400, burn_in=100, seed=s)) for s in range(5)])
        null = NullSpec((BernoulliKappa(), BernoulliKappa(), PoissonKappa()))
        result = run_subvector_test(series, 2, null, (1, 3), 0.05)
        for row, statistic in zip(series, result.statistics):
            assert statistic == run_subvector_test(row, 2, null, (1, 3), 0.05).statistic

    def test_constant_row_fails_alone(self):
        series = self.block(5, n=200)
        series[2] = 3
        result = run_test(series, 1, BERN_POIS_NULL, 0.05)
        assert result.outcomes[2] == dispersion_test.SINGULAR_GRAM
        assert np.isnan(result.statistics[2]) and np.isnan(result.p_values[2])
        others = np.delete(np.arange(5), 2)
        assert np.all(result.outcomes[others] <= dispersion_test.NEGATIVE)
        assert np.all(np.isfinite(result.statistics[others]))
        with pytest.raises(errors.EstimationError, match="singular Gram matrix"):
            run_test(series[2], 1, BERN_POIS_NULL, 0.05)

    def test_negative_statistic_row(self):
        # the short series of test_negative_statistic_keeps_null_with_warning
        model = GinarModel(counting=(Bernoulli(0.8),), innovation=Poisson(1.0))
        negative = simulate(model, SimConfig(n=50, burn_in=1000, seed=9))
        result = run_test(np.stack([h0_series(50, 11), negative]), 1, BERN_POIS_NULL, 0.05)
        assert result.outcomes[1] == dispersion_test.NEGATIVE
        assert result.statistics[1] < 0.0 and result.p_values[1] == 1.0

    def test_test_errors_become_codes(self):
        series = self.block(3)
        # kappa'(mu) = 2 mu / r + 1 is about 1e300, so W_hat overflows on every row
        overflow = run_test(series, 1, parse_null("negbinomial(r=1e-300),poisson"), 0.05)
        assert np.all(overflow.outcomes == dispersion_test.NONFINITE)
        singular = np.stack([[0, 1] * 10, h0_series(20, 3)])
        result = run_test(singular, 1, BERN_POIS_NULL, 0.05)
        assert result.outcomes[0] == dispersion_test.SINGULAR_W
        with pytest.raises(errors.TestError, match="singular"):
            run_test(singular[0], 1, BERN_POIS_NULL, 0.05)
        # W_hat of CANCELLED is below 1e-14 in every entry, against terms of 0.07 and more: it used to
        # pass as regular by its own eigenvalue ratio and reject with T = 9.3e15
        null = parse_null("bernoulli,bernoulli,poisson")
        cancelled = run_test(np.stack([CANCELLED, [2, 1, 0, 1, 3, 1, 0, 2]]), 2, null, 0.05)
        assert cancelled.outcomes[0] == dispersion_test.SINGULAR_W and np.isnan(cancelled.statistics[0])
        with pytest.raises(errors.TestError, match="W_hat is singular"):
            run_test(CANCELLED, 2, null, 0.05)

    @pytest.mark.parametrize("series,p,null,code", ONE_SERIES.values(), ids=ONE_SERIES.keys())
    def test_one_series_is_a_block_of_one(self, series, p, null, code):
        # one series gets the outcome of its row in a block of one: the same statistic and p-value bit
        # for bit, or the exception that the row's failure code names
        series, null = series(), parse_null(null)
        row = run_test(series[None], p, null, 0.05)
        assert row.outcomes[0] == code
        if code >= dispersion_test.SINGULAR_GRAM:
            expected = (
                (errors.EstimationError, "singular Gram matrix: regressor columns are linearly dependent")
                if code == dispersion_test.SINGULAR_GRAM
                else (errors.TestError, dispersion_test._TEST_ERRORS[code])
            )
            with pytest.raises(expected[0]) as raised:
                run_test(series, p, null, 0.05)
            assert str(raised.value).startswith(expected[1])
            return
        result = run_test(series, p, null, 0.05)
        assert bits(result.statistic) == bits(row.statistics[0]) and bits(result.p_value) == bits(row.p_values[0])
        assert type(result.p_value) is float
        assert result.reject == (code == dispersion_test.REJECT)
        assert any("is negative" in w for w in result.warnings) == (code == dispersion_test.NEGATIVE)

    def test_block_result_exposes_no_scalar_fields(self):
        # tools that read a TestResult's reject/statistic/warnings must not
        # mistake a block's arrays for them
        result = run_test(self.block(3), 1, BERN_POIS_NULL, 0.05)
        for name in ("reject", "statistic", "warnings"):
            assert not hasattr(result, name)

    @pytest.mark.parametrize("bad", [np.zeros((2, 3, 4)), np.zeros((0, 10)), [[1, 2, -3, 4]]])
    def test_bad_block_is_input_error(self, bad):
        with pytest.raises(InputError):
            run_test(np.asarray(bad), 1, BERN_POIS_NULL, 0.05)
