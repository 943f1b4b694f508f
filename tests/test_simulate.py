import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import stats

from ginar.distributions import (
    BerG,
    Bernoulli,
    Geometric,
    NegBinomial,
    Poisson,
    ZJExtended,
)
from ginar.errors import InputError
from ginar.simulate import (
    GinarModel,
    SimConfig,
    check_stationarity,
    read_series,
    sample_path,
    simulate,
    write_series,
)


def bernoulli_poisson_model(mu=0.3, rate=1.0):
    return GinarModel(counting=(Bernoulli(mu),), innovation=Poisson(rate))


class TestStationarity:
    def test_single_lag(self):
        assert check_stationarity([0.3]) is True

    def test_sum_one_rejected(self):
        assert check_stationarity([0.5, 0.5]) is False

    def test_two_lags_below_one(self):
        assert check_stationarity([0.6, 0.3]) is True

    def test_agrees_with_root_condition_on_unit_disk(self):
        # sum criterion vs brute-force grid search for roots of
        # 1 - 0.6 z - 0.3 z^2 over the closed unit disk
        radii = np.linspace(0.0, 1.0, 201)
        angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        z = np.outer(radii, np.exp(1j * angles)).ravel()
        values = 1.0 - 0.6 * z - 0.3 * z**2
        assert np.min(np.abs(values)) > 0.05

    def test_negative_and_nonfinite_means(self):
        assert check_stationarity([-0.1, 0.5]) is False
        assert check_stationarity([np.nan]) is False


class TestThin:
    """The thinning operator is the counting family's ``sample_sum``."""

    def test_zero_count_is_empty_sum(self):
        rng = np.random.default_rng(0)
        for spec in (Bernoulli(0.5), Poisson(2.0), BerG(0.2, 0.3)):
            assert spec.sample_sum(0, rng) == 0

    def test_degenerate_bernoulli_keeps_count(self):
        rng = np.random.default_rng(1)
        assert Bernoulli(1.0 - 1e-15).sample_sum(7, rng) == 7

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Bernoulli(0.5).sample_sum(-1, np.random.default_rng(2))

    def test_binomial_mean_oracle(self):
        # thinning 10 by Bernoulli(0.4) is Binomial(10, 0.4) with mean 4
        rng = np.random.default_rng(3)
        reps = 100_000
        draws = np.array([Bernoulli(0.4).sample_sum(10, rng) for _ in range(reps)], dtype=float)
        se = draws.std() / np.sqrt(reps)
        assert abs(draws.mean() - 4.0) < 3.0 * se


class TestModelAndConfig:
    def test_order(self):
        model = GinarModel(counting=(Bernoulli(0.2), Bernoulli(0.3)), innovation=Poisson(1.0))
        assert model.order == 2

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError, match="stationarity"):
            GinarModel(counting=(Bernoulli(0.6), Bernoulli(0.5)), innovation=Poisson(1.0))
        with pytest.raises(ValueError, match="stationarity"):
            GinarModel(counting=(BerG(0.5, 0.6),), innovation=Poisson(1.0))

    def test_stationary_mean_beyond_2_53_rejected(self):
        # mu_eps / (1 - mu_1): above 2**53 the counts could not be fitted exactly
        GinarModel(counting=(Bernoulli(0.5),), innovation=Poisson(2.0**52))
        for innovation in (Poisson(2.0**52 * 1.001), Geometric(1e-300)):
            with pytest.raises(InputError, match=r"2\*\*53"):
                GinarModel(counting=(Bernoulli(0.5),), innovation=innovation)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=0)
        with pytest.raises(ValueError):
            SimConfig(n=10, burn_in=-1)
        with pytest.raises(ValueError):
            SimConfig(n=10, seed=2**64)

    def test_length_must_leave_a_regression_row(self):
        with pytest.raises(InputError):
            simulate(bernoulli_poisson_model(), SimConfig(n=2, burn_in=0, seed=0))


class TestSimulate:
    def test_deterministic_per_seed(self):
        model = bernoulli_poisson_model()
        config = SimConfig(n=500, burn_in=100, seed=12345)
        assert_array_equal(simulate(model, config), simulate(model, config))

    def test_seed_changes_path(self):
        model = bernoulli_poisson_model()
        a = simulate(model, SimConfig(n=500, burn_in=100, seed=1))
        b = simulate(model, SimConfig(n=500, burn_in=100, seed=2))
        assert np.any(a != b)

    def test_values_are_nonnegative_integers(self):
        series = simulate(bernoulli_poisson_model(), SimConfig(n=2000, seed=9))
        assert series.dtype == np.int64
        assert np.all(series >= 0)

    def test_length(self):
        assert len(simulate(bernoulli_poisson_model(), SimConfig(n=777, seed=4))) == 777

    def test_negligible_thinning_gives_iid_innovations(self):
        # counting mean ~ 0 so the process is essentially i.i.d. Poisson(1)
        model = GinarModel(counting=(Bernoulli(1e-9),), innovation=Poisson(1.0))
        series = simulate(model, SimConfig(n=100_000, seed=21))
        se = series.std() / np.sqrt(len(series))
        assert abs(series.mean() - 1.0) < 3.0 * se

    def test_stationary_mean_and_autocorrelation(self):
        # INAR(1): mean mu_eps / (1 - mu_1), lag-1 autocorrelation mu_1
        series = simulate(bernoulli_poisson_model(0.3, 1.0), SimConfig(n=100_000, seed=33))
        z = series.astype(float)
        # effective sample size shrinks by (1+rho)/(1-rho) under AR(1) dependence
        se_mean = z.std() / np.sqrt(len(z)) * np.sqrt(1.3 / 0.7)
        assert abs(z.mean() - 1.0 / 0.7) < 3.0 * se_mean
        zc = z - z.mean()
        rho1 = np.dot(zc[1:], zc[:-1]) / np.dot(zc, zc)
        se_rho = np.sqrt(1.0 / len(z))
        assert abs(rho1 - 0.3) < 3.0 * se_rho

    def test_conditional_mean_tracks_recursion(self):
        # bin on the lagged value: E[Z_t | Z_{t-1}=z] = 0.3 z + 1
        series = simulate(bernoulli_poisson_model(0.3, 1.0), SimConfig(n=100_000, seed=41))
        prev, curr = series[:-1], series[1:].astype(float)
        for value in np.unique(prev):
            sel = curr[prev == value]
            if len(sel) < 1000:
                continue
            se = sel.std() / np.sqrt(len(sel))
            assert abs(sel.mean() - (0.3 * value + 1.0)) < 3.0 * se

    def test_sample_path_respects_caller_stream(self):
        model = bernoulli_poisson_model()
        rng1 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
        rng2 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
        assert_array_equal(sample_path(model, 100, 50, rng1), sample_path(model, 100, 50, rng2))

    def test_second_order_recursion(self):
        model = GinarModel(counting=(Bernoulli(0.3), Bernoulli(0.2)), innovation=Poisson(1.0))
        series = simulate(model, SimConfig(n=50_000, seed=55))
        # stationary mean mu_eps / (1 - mu_1 - mu_2) = 2
        se = series.std() / np.sqrt(len(series)) * 2.0
        assert abs(series.mean() - 2.0) < 4.0 * se


ENGINE_FAMILIES = [
    Bernoulli(0.3),
    Poisson(1.0),
    NegBinomial(2.0, 0.4),
    Geometric(0.35),
    ZJExtended(0.5, 0.5),
    BerG(0.2, 0.1),
]


def _batch_se(values, batches=100):
    """Standard error of a statistic of a long dependent series, from batch values."""
    return np.std(values, ddof=1) / np.sqrt(batches)


def _lag1(z):
    zc = z - z.mean()
    return np.dot(zc[1:], zc[:-1]) / np.dot(zc, zc)


class TestEngineLaw:
    """The table route and the ``sample_sum`` fallback draw the same law."""

    @pytest.mark.parametrize("dist", ENGINE_FAMILIES, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("count", [1, 5])
    def test_sample_sum_fits_sum_pmf(self, dist, count):
        rng = np.random.default_rng(61)
        reps = 20_000
        draws = np.array([dist.sample_sum(count, rng) for _ in range(reps)])
        expected = reps * dist.sum_pmf(count)
        # one bin per value with expected count >= 5, the rest pooled at the top
        cells = int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
        top = len(expected) - cells - 1
        observed = np.bincount(np.minimum(draws, top), minlength=top + 1)[: top + 1]
        exp = np.append(expected[:top], reps - expected[:top].sum())
        result = stats.chisquare(observed, exp)
        assert result.pvalue > 1e-3, (observed, exp)

    def test_table_route_matches_inverse_transform(self):
        # stream layout: initial innovations, step innovations, then one
        # uniform per lag and step, each mapped through the exact CDF
        model = GinarModel(counting=(BerG(0.2, 0.3),), innovation=Poisson(1.0))
        path = sample_path(model, 300, 0, np.random.default_rng(71))
        rng = np.random.default_rng(71)
        prev = int(model.innovation.sample_array(1, rng)[0])
        eps = model.innovation.sample_array(300, rng)
        uniforms = rng.random(300)
        expected = []
        for e, u in zip(eps, uniforms):
            thinned = 0
            if prev:
                cdf = np.cumsum(model.counting[0].sum_pmf(prev))
                thinned = int(np.searchsorted(cdf, u, side="right"))
            prev = int(e) + thinned
            expected.append(prev)
        assert_array_equal(path, expected)

    def test_small_counts_never_call_sample_sum(self, monkeypatch):
        calls = []
        original = BerG.sample_sum
        monkeypatch.setattr(BerG, "sample_sum", lambda self, *a: calls.append(a) or original(self, *a))
        model = GinarModel(counting=(BerG(0.2, 0.3),), innovation=Poisson(1.0))
        sample_path(model, 500, 1000, np.random.default_rng(3))
        assert calls == []

    @pytest.mark.parametrize(
        "counting,rho1",
        [
            ((BerG(0.2, 0.3),), 0.5),
            # AR(2) in the means: rho1 = mu1 / (1 - mu2)
            ((NegBinomial(2.0, 0.9), Geometric(0.8)), (0.2 / 0.9) / (1.0 - 0.25)),
        ],
        ids=["berg", "negbin+geometric"],
    )
    def test_stationary_mean_and_lag1_autocorrelation(self, counting, rho1):
        model = GinarModel(counting=counting, innovation=Poisson(1.0))
        z = sample_path(model, 200_000, 1000, np.random.default_rng(83)).astype(float)
        batches = z.reshape(100, -1)
        mean = 1.0 / (1.0 - sum(spec.mean for spec in counting))
        assert abs(z.mean() - mean) < 3.0 * _batch_se(batches.mean(axis=1))
        assert abs(_lag1(z) - rho1) < 3.0 * _batch_se([_lag1(b) for b in batches])

    def test_fallback_heavy_model_mean(self, monkeypatch):
        # counts near 5000 give rows far beyond the table limit, so nearly
        # every thinning sum goes through sample_sum
        calls = []
        original = Bernoulli.sample_sum
        monkeypatch.setattr(
            Bernoulli, "sample_sum", lambda self, *a: calls.append(1) or original(self, *a)
        )
        model = GinarModel(counting=(Bernoulli(0.01),), innovation=Poisson(5000.0))
        n = 20_000
        z = sample_path(model, n, 1000, np.random.default_rng(97)).astype(float)
        assert len(calls) >= n
        se = z.std() / np.sqrt(n) * np.sqrt(1.01 / 0.99)
        assert abs(z.mean() - 5000.0 / 0.99) < 3.0 * se


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        series = simulate(bernoulli_poisson_model(), SimConfig(n=50, seed=5))
        write_series(path, series)
        assert path.read_text().splitlines()[0] == "count"
        assert_array_equal(read_series(path), series)

    def test_header_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("3\n0\n5\n")
        assert_array_equal(read_series(path), np.array([3, 0, 5]))

    def test_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("count\n3\n2.5\n")
        with pytest.raises(InputError, match="line 3"):
            read_series(path)

    def test_negative_reports_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("2\n-1\n")
        with pytest.raises(InputError, match="line 2"):
            read_series(path)

    def test_count_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("count\n9223372036854775807\n100000000000000000000\n")
        with pytest.raises(InputError, match="line 3"):
            read_series(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="no observations"):
            read_series(path)

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfcount\r\n3\r\n0\r\n")
        assert_array_equal(read_series(path), np.array([3, 0]))

    @pytest.mark.parametrize("data", [b"count\n1\n2\xe9\n", b"\xef\xbb\xbfcount\r1\r\n\xe9"])
    def test_undecodable_bytes_report_line(self, tmp_path, data):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(InputError, match="line 3"):
            read_series(path)

    def test_oversized_field_reports_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("count\n1\n" + "9" * 131_073 + "\n")
        with pytest.raises(InputError, match="line 3"):
            read_series(path)
