import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from ginar.cli import format_report
from ginar.cls import (
    CLSFit,
    assemble_V_cls,
    build_regressors,
    estimate_moment_matrices,
    fit_cls,
)
from ginar.dispersion_test import NullSpec, run_test
from ginar.distributions import Bernoulli, BernoulliKappa, Poisson, PoissonKappa
from ginar.errors import EstimationError, InputError
from ginar.numerics import invert
from ginar.simulate import GinarModel, SimConfig, simulate
from oracles import assemble_V_general, reference_moments


def simulated_series(n, seed, mu=0.3, rate=1.0, burn_in=1000):
    model = GinarModel(counting=(Bernoulli(mu),), innovation=Poisson(rate))
    return simulate(model, SimConfig(n=n, burn_in=burn_in, seed=seed))


def minimize_objective(objective, start):
    res = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-14, "maxiter": 20_000, "maxfev": 40_000},
    )
    assert res.success or res.fun <= objective(res.x) + 1e-12
    return res.x


class TestBuildRegressors:
    def test_order_one_rows(self):
        response, design = build_regressors([2, 0, 3], 1)
        assert len(response) == 2
        assert_allclose(response, [0.0, 3.0])
        assert_allclose(design, [[2.0, 1.0], [0.0, 1.0]])

    def test_boundary_single_row(self):
        response, design = build_regressors([5, 2], 1)
        assert len(response) == 1
        assert_allclose(design, [[5.0, 1.0]])

    def test_order_two_rows(self):
        response, design = build_regressors([1, 2, 3, 4], 2)
        assert len(response) == 2
        assert_allclose(response[0], 3.0)
        assert_allclose(design[0], [2.0, 1.0, 1.0])
        assert_allclose(design[1], [3.0, 2.0, 1.0])

    def test_intercept_column_is_one(self):
        _, design = build_regressors(simulated_series(200, 1), 3)
        assert np.all(design[:, -1] == 1.0)

    def test_too_short_is_input_error(self):
        with pytest.raises(InputError):
            build_regressors([1, 2], 2)

    @pytest.mark.parametrize("bad", [[1, -2, 3], [0.5, 1.0, 2.0]])
    def test_non_count_values_rejected(self, bad):
        with pytest.raises(ValueError):
            build_regressors(bad, 1)

    def test_counts_beyond_float64_precision_rejected(self):
        series = np.array([3, 2**53 + 1, 0], dtype=np.int64)
        with pytest.raises(InputError, match=str(2**53 + 1)):
            build_regressors(series, 1)
        assert build_regressors(np.array([2**53, 0, 1]), 1)[1][0, 0] == 2.0**53

    @pytest.mark.parametrize(
        "values",
        [["1", "2", "0", "3", "1", "2"], [True, False, True, True, False, True], [1, 2, 0, True, 1, 2]],
        ids=["strings", "bools", "one-bool"],
    )
    @pytest.mark.parametrize("call", ["fit_cls", "run_test"])
    def test_object_series_of_non_numbers_rejected(self, values, call):
        # strings used to escape as a bare TypeError from the 2**53 check, and bools were fitted as 0/1 counts
        series = np.array(values, dtype=object)
        with pytest.raises(InputError, match="nonnegative integers"):
            if call == "fit_cls":
                fit_cls(series, 1)
            else:
                run_test(series, 1, NullSpec((BernoulliKappa(), PoissonKappa())))

    def test_object_series_of_numbers_fits_as_counts(self):
        values = [1, 2, 0, 3, 1, 2, 5, 0, 1]
        mixed = np.array([np.int64(1), 2.0, 0, 3, 1, 2, 5, 0, 1], dtype=object)
        assert_allclose(fit_cls(mixed, 1).mu_hat, fit_cls(np.array(values), 1).mu_hat, rtol=0, atol=0)

    @pytest.mark.parametrize("p", [0, 64, 1.5, 2.0, True])
    def test_order_outside_supported_range(self, p):
        with pytest.raises(InputError, match="order"):
            build_regressors(np.arange(100), p)


class TestClosedForms:
    def test_constant_series_is_singular(self):
        with pytest.raises(EstimationError, match="singular"):
            fit_cls([2] * 30, 1)

    def test_alternating_series_matches_hand_solve(self):
        # series 0,1,0,1,... -> solve the 2x2 normal equations directly
        series = np.array([0, 1] * 20)
        y, x = build_regressors(series, 1)
        lhs = x.T @ x
        mu_oracle = np.linalg.solve(lhs, x.T @ y)
        fit = fit_cls(series, 1)
        assert_allclose(fit.mu_hat, mu_oracle, atol=1e-12)
        resid_sq = (y - x @ mu_oracle) ** 2
        theta_oracle = np.linalg.solve(lhs, x.T @ resid_sq)
        assert_allclose(fit.theta_hat, theta_oracle, atol=1e-12)

    def test_zero_residuals_give_zero_theta(self):
        # Z_t = Z_{t-1} + 1 fits exactly, so squared residuals vanish
        fit = fit_cls(np.arange(12), 1)
        assert_allclose(fit.mu_hat, [1.0, 1.0], atol=1e-10)
        assert_allclose(fit.theta_hat, [0.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("seed,n", [(2, 50), (3, 321)])
    def test_matches_numeric_minimization(self, seed, n):
        series = simulated_series(n, seed)
        y, x = build_regressors(series, 1)

        fit = fit_cls(series, 1)
        mu_hat = fit.mu_hat
        mu_opt = minimize_objective(lambda mu: np.sum((y - x @ mu) ** 2), np.array([0.5, 0.5]))
        assert_allclose(mu_hat, mu_opt, atol=1e-6)

        theta_hat = fit.theta_hat
        resid_sq = (y - x @ mu_hat) ** 2
        theta_opt = minimize_objective(
            lambda th: np.sum((resid_sq - x @ th) ** 2), np.array([0.5, 0.5])
        )
        assert_allclose(theta_hat, theta_opt, atol=1e-6)

    def test_long_run_variance_estimates(self):
        # Bernoulli(0.3) thinning + Poisson(1): theta_0 = (0.21, 1.0)
        series = simulated_series(100_000, 7)
        fit = fit_cls(series, 1)
        moments = estimate_moment_matrices(fit)
        se = np.sqrt(np.diag(moments.v)[2:] / fit.n_eff)
        assert abs(fit.theta_hat[0] - 0.21) < 3.0 * se[0]
        assert abs(fit.theta_hat[1] - 1.0) < 3.0 * se[1]

    def test_warnings_on_negative_variance_components(self):
        # tiny sample with a crafted shape can push theta negative; verify
        # the warning plumbing rather than chance: force it via a series
        # whose residual pattern anti-correlates with the regressor
        rng = np.random.default_rng(0)
        for attempt in range(200):
            series = simulated_series(12, attempt, mu=0.6, rate=0.4, burn_in=50)
            fit = fit_cls(series, 1)
            if np.any(fit.theta_hat < 0.0):
                assert any("negative" in w for w in fit.warnings)
                break
        else:
            pytest.fail("no negative variance component found in 200 small samples")

    @pytest.mark.parametrize(
        "series,label,warns",
        [
            # theta_1 is exactly 0 in rationals and -5.95e-16 in floats
            ([1, 0, 2, 2, 1, 0, 1, 0], "lag 1", False),
            # the innovation theta is exactly 0 in rationals and -5.5e-17 in floats
            ([0, 1, 1, 1, 0, 1, 1, 0], "innovation", False),
            # theta_1 is -0.066, clearly negative
            ([5, 0, 0, 1, 2, 1, 0, 0], "lag 1", True),
        ],
    )
    def test_negative_variance_warning_ignores_rounding(self, series, label, warns):
        fit = fit_cls(np.array(series), 1)
        assert fit.theta_hat[0 if label == "lag 1" else 1] < 0.0
        warned = any(w.startswith(f"variance estimate for {label} is negative") for w in fit.warnings)
        assert warned == warns


class TestConsistencyAtScale:
    def test_mean_of_estimates_near_truth(self):
        # 200 replications of n=2000 under (0.3, 1, 0.21, 1)
        reps = 200
        estimates = np.empty((reps, 4))
        for k in range(reps):
            series = simulated_series(2000, 10_000 + k)
            fit = fit_cls(series, 1)
            estimates[k] = np.concatenate([fit.mu_hat, fit.theta_hat])
        truth = np.array([0.3, 1.0, 0.21, 1.0])
        se = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(estimates.mean(axis=0) - truth) < 3.0 * se)


class TestMomentMatrices:
    def test_two_row_hand_computation(self):
        # two rows are too few for fit_cls (p + 2 = 3), so build the fit by hand
        response, design = build_regressors([2, 0, 3], 1)
        mu_hat = np.array([0.1, 0.2])
        fit = CLSFit(
            mu_hat=mu_hat,
            theta_hat=np.array([0.3, 0.4]),
            design=design,
            residuals=response - design @ mu_hat,
            gram=design.T @ design / 2,
            gram_inv=np.array([[1.0, -1.0], [-1.0, 2.0]]),
        )
        fitted = estimate_moment_matrices(fit)
        assert_allclose(fitted.jm, [[2.0, 1.0], [1.0, 1.0]])
        # fitted variances (1.0, 0.4): im = (1.0 * [[4, 2], [2, 1]] + 0.4 * [[0, 0], [0, 1]]) / 2
        assert_allclose(fitted.im, [[2.0, 1.0], [1.0, 0.7]])
        assert_allclose(fitted.v11, fit.gram_inv @ fitted.im @ fit.gram_inv)

    def test_structure(self):
        series = simulated_series(500, 11)
        fit = fit_cls(series, 1)
        m = estimate_moment_matrices(fit)
        assert_allclose(m.jm, m.jm.T)
        assert_allclose(m.im, m.im.T)
        assert_allclose(m.iv, m.iv.T)
        assert_allclose(m.v, m.v.T, atol=1e-12)
        assert_allclose(m.v[2:, :2], m.v12.T, atol=1e-12)

    def test_jm_matches_stationary_moments(self):
        # Poisson innovations keep the INAR(1) marginal Poisson(10/7), so
        # E[Y Y'] = [[E Z^2, E Z], [E Z, 1]] with E Z = 10/7, E Z^2 = 170/49
        series = simulated_series(100_000, 13)
        fit = fit_cls(series, 1)
        m = estimate_moment_matrices(fit)
        z = fit.design[:, 0]
        se_z = z.std() / np.sqrt(len(z)) * 2.0
        se_z2 = (z**2).std() / np.sqrt(len(z)) * 2.0
        assert abs(m.jm[0, 1] - 10.0 / 7.0) < 3.0 * se_z
        assert abs(m.jm[0, 0] - 170.0 / 49.0) < 3.0 * se_z2

    def test_reuses_the_fit(self):
        # jm is the fit's Gram matrix, and V is assembled from the stored blocks
        series = simulated_series(300, 12)
        fit = fit_cls(series, 1)
        m = estimate_moment_matrices(fit)
        assert m.jm is fit.gram
        assert np.array_equal(m.v, np.block([[m.v11, m.v12], [m.v12.T, m.v22]]))
        response, design = build_regressors(series, 1)
        assert np.array_equal(fit.residuals, response - design @ fit.mu_hat)

    @pytest.mark.parametrize("reps", [2, 3])
    def test_block_v_matches_each_series_alone(self, reps):
        # at R = p + 1 = 2 a transpose of every axis of v12 gave a wrong
        # lower-left block, and at R = 3 it could not be assembled at all
        series = [simulated_series(300, 50 + k) for k in range(reps)]
        block = estimate_moment_matrices(fit_cls(np.stack(series), 1)).v
        assert block.shape == (reps, 4, 4)
        for row, one in zip(block, series):
            assert np.array_equal(row, estimate_moment_matrices(fit_cls(one, 1)).v)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 300, 2000])
    def test_matches_per_t_reference(self, p, n):
        # every moment matrix and sandwich block against a plain sum over t, on
        # one series and on each row of a block of five; relative to each
        # matrix's largest entry, since an entry that cancels to rounding noise
        # has no relative accuracy
        model = GinarModel(counting=(Bernoulli(0.3), Bernoulli(0.2), Bernoulli(0.1))[:p], innovation=Poisson(1.0))
        series = np.stack([simulate(model, SimConfig(n=n, burn_in=100, seed=700 + 10 * n + s)) for s in range(5)])
        names = ("jm", "im", "imv", "iv", "v11", "v12", "v22")
        block = estimate_moment_matrices(fit_cls(series, p))
        for row, one in enumerate(series):
            fit = fit_cls(one, p)
            expected = reference_moments(one, p, fit.mu_hat, fit.theta_hat)
            for moments, index in ((estimate_moment_matrices(fit), ...), (block, row)):
                for name, want in zip(names, expected):
                    scale = np.abs(want).max()
                    assert_allclose(getattr(moments, name)[index], want, rtol=1e-12, atol=1e-12 * scale, err_msg=name)

    def test_constant_regressors_singular(self):
        # the Gram matrix is inverted once, in fit_cls, before any moment matrix
        with pytest.raises(EstimationError):
            estimate_moment_matrices(fit_cls([3] * 20, 1))


class TestAssembly:
    def test_identity_propagation(self):
        eye = np.eye(2)
        v11, v12, v22 = assemble_V_cls(invert(eye), eye, np.zeros((2, 2)), eye)
        assert_allclose(np.block([[v11, v12], [v12.T, v22]]), np.eye(4), atol=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            jm = a @ a.T + 3.0 * np.eye(3)
            b = rng.normal(size=(3, 3))
            im = b @ b.T + np.eye(3)
            c = rng.normal(size=(3, 3))
            iv = c @ c.T + np.eye(3)
            imv = rng.normal(size=(3, 3))
            imv = 0.5 * (imv + imv.T)
            v11, v12, v22 = assemble_V_cls(invert(jm), im, imv, iv)
            v = np.block([[v11, v12], [v12.T, v22]])
            assert_allclose(v, v.T, atol=1e-10)

    def test_general_reduces_to_cls_when_jvm_zero(self):
        rng = np.random.default_rng(8)
        for dim in (2, 3):
            a = rng.normal(size=(dim, dim))
            jm = a @ a.T + dim * np.eye(dim)
            b = rng.normal(size=(dim, dim))
            im = b @ b.T + np.eye(dim)
            c = rng.normal(size=(dim, dim))
            iv = c @ c.T + np.eye(dim)
            imv = rng.normal(size=(dim, dim))
            v11, v12, v22 = assemble_V_cls(invert(jm), im, imv, iv)
            general = assemble_V_general(jm, jm.copy(), np.zeros((dim, dim)), im, imv, iv)
            assert_allclose(general, np.block([[v11, v12], [v12.T, v22]]), atol=1e-12)

    def test_general_all_identity(self):
        eye = np.eye(2)
        v = assemble_V_general(eye, eye, eye, eye, eye, eye)
        assert_allclose(v[:2, :2], eye, atol=1e-14)
        assert_allclose(v[:2, 2:], np.zeros((2, 2)), atol=1e-14)
        assert_allclose(v[2:, 2:], np.zeros((2, 2)), atol=1e-14)

    def test_general_output_symmetric(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            mats = []
            for _ in range(3):
                a = rng.normal(size=(2, 2))
                mats.append(a @ a.T + 2.0 * np.eye(2))
            jm, im, iv = mats
            jvm = rng.normal(size=(2, 2))
            imv = rng.normal(size=(2, 2))
            v = assemble_V_general(jm, jm.copy(), jvm, im, imv, iv)
            assert_allclose(v, v.T, atol=1e-10)


class TestSandwichSanity:
    def test_plug_in_matches_monte_carlo_covariance(self):
        # covariance of sqrt(n_eff)(mu_hat - mu0, theta_hat - theta0) over
        # 1000 replications vs the averaged plug-in V, entrywise within 15%;
        # the replications are fitted as one block, each row with its series' bits
        reps, n = 1000, 2000
        truth = np.array([0.3, 1.0, 0.21, 1.0])
        fit = fit_cls(np.stack([simulated_series(n, 40_000 + k) for k in range(reps)]), 1)
        assert not fit.singular_gram.any()
        estimates = np.concatenate([fit.mu_hat, fit.theta_hat], axis=1)
        m = estimate_moment_matrices(fit)
        v11, v12, v22 = (block.mean(axis=0) for block in (m.v11, m.v12, m.v22))
        n_eff = n - 1
        empirical = np.cov((np.sqrt(n_eff) * (estimates - truth)).T)
        averaged = np.block([[v11, v12], [v12.T, v22]])
        assert np.max(np.abs(averaged - empirical) / np.abs(empirical)) < 0.15


class TestDivisorInvariance:
    def test_statistic_invariant_v_scales_exactly(self):
        # using divisor n instead of n_eff scales V by n/n_eff but leaves
        # the final quadratic form n * d' W^{-1} d unchanged
        series = simulated_series(400, 17)
        fit = fit_cls(series, 1)
        m_eff = estimate_moment_matrices(fit)

        n = len(series)
        n_eff = fit.n_eff
        scale = n_eff / n
        v11, v12, v22 = assemble_V_cls(
            invert(m_eff.jm * scale),
            m_eff.im * scale,
            m_eff.imv * scale,
            m_eff.iv * scale,
        )
        v_n = np.block([[v11, v12], [v12.T, v22]])
        assert_allclose(v_n, m_eff.v * (n / n_eff), rtol=1e-12)

        d = np.array([0.05, -0.02, 0.01, 0.03])
        w_eff = m_eff.v[:2, :2]  # any consistent block works for the check
        w_n = v_n[:2, :2]
        t_eff = n_eff * d[:2] @ np.linalg.inv(w_eff) @ d[:2]
        t_n = n * d[:2] @ np.linalg.inv(w_n) @ d[:2]
        assert_allclose(t_n, t_eff, rtol=1e-10)


class TestReports:
    def test_fit_report_fields(self):
        fit = fit_cls(simulated_series(200, 19), 1)
        report = format_report(fit)
        for token in ("mu_hat", "theta_hat", "n_eff", "warnings"):
            assert token in report
