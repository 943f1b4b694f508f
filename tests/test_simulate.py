import csv
import hashlib
import importlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    _GUIDE,
    GinarModel,
    SimConfig,
    check_stationarity,
    _table_row,
    read_series,
    sample_path,
    simulate,
    write_series,
)
from oracles import reference_path


simulate_module = importlib.import_module("ginar.simulate")  # ``ginar.simulate`` is the function


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
        for kwargs in ({"n": 5.5}, {"n": 10, "burn_in": 2.5}, {"n": 10, "seed": 1.5}):
            with pytest.raises(InputError):
                SimConfig(**kwargs)

    @pytest.mark.parametrize("n,burn_in", [(5, -1), (-5, 10), (0, 10), (5.5, 10), (True, 10), (10, 2.5)])
    def test_sample_path_bounds(self, n, burn_in):
        with pytest.raises(InputError):
            sample_path(bernoulli_poisson_model(), n, burn_in, np.random.default_rng(1))

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


# (counting specs, innovation, sha256 prefix of the bank's paths). The digests
# were computed with the per-path row engine of version 0.2.0; a faster
# sampler must reproduce them bit for bit.
GOLDEN_BANK = {
    "bernoulli": ((Bernoulli(0.3),), Poisson(1.0), "5830e9c3ac591f6b"),
    "berg": ((BerG(0.2, 0.3),), Poisson(1.0), "4c179db46c4cc6bc"),
    "bernoulli_high": ((Bernoulli(0.8),), Poisson(1.0), "59edbd1b07c2ce7f"),
    "fallback": ((Bernoulli(0.01),), Poisson(5000.0), "58393ffbd574d689"),
    "zj": ((ZJExtended(0.5, 0.5),), Poisson(2.0), "8775509978ef5d2a"),
    "nb_innovation": ((Geometric(0.6),), NegBinomial(2.0, 0.4), "1c61e4adcf4da126"),
    "p2": ((NegBinomial(2.0, 0.9), Geometric(0.8)), Poisson(1.0), "6f9ab90820064495"),
    "p3": ((Bernoulli(0.3), Bernoulli(0.2), BerG(0.1, 0.1)), Poisson(1.5), "9511493ee8beae9a"),
    "zj_innovation": ((Poisson(0.5),), ZJExtended(0.5, 0.3), "d415e495f3b748d8"),
    "p2_same_spec": ((Bernoulli(0.4), Bernoulli(0.4)), Poisson(3.0), "2a45c5e80ac8ffed"),
    "budget": ((Bernoulli(0.5),), Poisson(3.0), "7d9e9385f4c2a640"),
    # both lags draw through sample_sum at every step, so a loop that reorders lags within a step fails
    "p2_fallback": ((Poisson(0.3), Poisson(0.4)), Poisson(5000.0), "8f801e73f7eb9eb7"),
}
# (n, burn_in): the short paths without burn-in run out of row budget
GOLDEN_SHAPES = ((1, 0), (5, 0), (40, 0), (200, 50), (500, 1000))


class TestSharedRows:
    """CDF rows are built once per process and shared by every path; the
    per-path row budget and the stream layout stay as they were."""

    @pytest.mark.parametrize("name", GOLDEN_BANK)
    def test_golden_paths(self, name):
        counting, innovation, digest = GOLDEN_BANK[name]
        model = GinarModel(counting=counting, innovation=innovation)
        sha = hashlib.sha256()
        for n, burn_in in GOLDEN_SHAPES:
            for seed in range(5):
                sha.update(sample_path(model, n, burn_in, np.random.default_rng(seed)).tobytes())
        assert sha.hexdigest()[:16] == digest

    def test_second_path_builds_no_rows(self, monkeypatch):
        calls = []
        original = Bernoulli.sum_pmf
        monkeypatch.setattr(Bernoulli, "sum_pmf", lambda self, count: calls.append(count) or original(self, count))
        model = GinarModel(counting=(Bernoulli(0.3713),), innovation=Poisson(1.3))
        first = sample_path(model, 500, 100, np.random.default_rng(5))
        assert calls
        calls.clear()
        assert_array_equal(sample_path(model, 500, 100, np.random.default_rng(5)), first)
        assert calls == []

    def test_short_path_budget_refuses_built_rows(self, monkeypatch):
        # without burn-in a path of 3 steps may take 3 table entries, and
        # every Bernoulli(0.5) row is estimated longer (6.5 and up), so each
        # nonzero count goes to sample_sum although its row is already built
        model = GinarModel(counting=(Bernoulli(0.5),), innovation=Poisson(3.0))
        sample_path(model, 2000, 0, np.random.default_rng(8))
        calls = []
        original = Bernoulli.sample_sum
        monkeypatch.setattr(Bernoulli, "sample_sum", lambda self, *a: calls.append(a[0]) or original(self, *a))
        path = sample_path(model, 3, 0, np.random.default_rng(9))
        start = int(model.innovation.sample_array(1, np.random.default_rng(9))[0])
        expected = [count for count in (start, *path[:-1].tolist()) if count]
        assert expected and calls == expected
        calls.clear()
        sample_path(model, 3, 1000, np.random.default_rng(9))
        assert calls == []


# every counting spec of the golden bank, once
GUIDE_SPECS = list(dict.fromkeys(spec for counting, _, _ in GOLDEN_BANK.values() for spec in counting))


class TestGuide:
    """A row's guide gives bisect_right's count wherever it holds one."""

    @pytest.mark.parametrize("spec", GUIDE_SPECS, ids=repr)
    def test_guide_agrees_with_bisect(self, spec):
        uniforms = np.random.default_rng(101).random(100_000)
        buckets = (uniforms * _GUIDE).astype(np.int64)
        lower = np.arange(_GUIDE) / _GUIDE
        below_upper = np.nextafter(lower + 1.0 / _GUIDE, 0.0)
        for count in range(1, 9):
            cdf, guide = _table_row(spec, count)
            assert len(guide) == _GUIDE
            # sorted and within [0, 1], though a rounded sum can pass 1 before the last entry
            assert 0.0 <= cdf[0] and all(a <= b for a, b in zip(cdf, cdf[1:])) and cdf[-1] == 1.0
            # -1 exactly in the buckets an entry lies strictly inside
            entries = np.array([c for c in cdf if c < 1.0])
            split = {int(c * _GUIDE) for c in entries.tolist() if c * _GUIDE % 1}
            assert {k for k, g in enumerate(guide) if g < 0} == split
            points = np.concatenate([lower, below_upper, entries, np.nextafter(entries, 0.0)])
            for u in points.tolist():
                g = guide[int(u * _GUIDE)]
                assert g < 0 or g == bisect_right(cdf, u), (count, u)
            # numpy's searchsorted(side="right") is bisect_right, for the random uniforms at once
            g = np.array(guide)[buckets]
            whole = g >= 0
            assert_array_equal(g[whole], np.searchsorted(np.array(cdf), uniforms[whole], side="right"))

    def test_split_bucket_defers_to_bisect(self, monkeypatch):
        # Bernoulli(0.3) thins 1 to 0 below u = c (about 0.7) and to 1 from it on, so c splits its bucket
        cdf, guide = _table_row(Bernoulli(0.3), 1)
        c = cdf[0]
        assert cdf == (c, 1.0) and 0.6 < c < 0.8
        k = int(c * _GUIDE)
        low, high = k / _GUIDE, float(np.nextafter(c, 0.0))
        assert [bisect_right(cdf, u) for u in (low, high, c)] == [0, 0, 1]
        assert (guide[k - 1], guide[k], guide[k + 1]) == (0, -1, 1)

        class Scripted:
            # every innovation is 1, so each step thins a count of 1; the uniforms are set
            def poisson(self, rate, size):
                return np.ones(size, dtype=np.int64)

            def random(self, size):
                return np.array([0.0] * (size - 3) + [low, high, c])

        calls = []
        monkeypatch.setattr(
            simulate_module, "bisect_right", lambda row, u: calls.append(u) or bisect_right(row, u)
        )
        model = GinarModel(counting=(Bernoulli(0.3),), innovation=Poisson(1.0))
        assert sample_path(model, 8, 0, Scripted()).tolist() == [1] * 7 + [2]
        assert calls == [low, high, c]

    @pytest.mark.parametrize("p", [2, 3])
    def test_split_bucket_reads_its_own_lags_uniform(self, monkeypatch, p):
        # Bernoulli(q) thins 1 to 0 below u = 1 - q and to 1 from it on: lag i + 1 has its own entry c_i
        specs = (Bernoulli(0.3), Bernoulli(0.2), Bernoulli(0.1))[:p]
        cdfs = [_table_row(spec, 1)[0] for spec in specs]
        steps = 20  # enough row budget for every lag's count-1 row
        uniforms = [0.0] * (steps * p)  # bucket 0 thins 1 to 0, so the counts stay 1
        expected = []
        for t in range(1, steps - 1):
            for i in range(p):
                if (t + i) % 2:
                    # inside c_i's bucket and below c_i, distinct for each (step, lag)
                    k = int(cdfs[i][0] * _GUIDE)
                    u = (k + (5 * t + i) / 1000) / _GUIDE
                    assert int(u * _GUIDE) == k and u < cdfs[i][0] and _table_row(specs[i], 1)[1][k] == -1
                    uniforms[t * p + i] = u
                    expected.append((i + 1, u))
        # the last step thins each lag's 1 to 1: lag 1 by the largest double below 1, which must
        # land in bucket 255 (a guide index, no bisect) and not wrap to bucket 0; the others by c_i
        top = float(np.nextafter(1.0, 0.0))
        assert int(np.array([top * _GUIDE]).astype(np.uint8)[0]) == _GUIDE - 1
        uniforms[(steps - 1) * p :] = [top] + [cdf[0] for cdf in cdfs[1:]]
        expected += [(i + 1, cdfs[i][0]) for i in range(1, p)]

        class Scripted:
            def poisson(self, rate, size):
                return np.ones(size, dtype=np.int64)

            def random(self, size):
                assert size == steps * p
                return np.array(uniforms)

        calls = []
        monkeypatch.setattr(
            simulate_module,
            "bisect_right",
            lambda row, u: calls.append((cdfs.index(row) + 1, u)) or bisect_right(row, u),
        )
        model = GinarModel(counting=specs, innovation=Poisson(1.0))
        assert sample_path(model, steps, 0, Scripted()).tolist() == [1] * (steps - 1) + [1 + p]
        assert calls == expected


# counting specs with means at most 0.3, so any three of them are stationary;
# Bernoulli(1e-7) takes table rows even for counts beyond the guide list's _FAR
REFERENCE_COUNTING = [
    Bernoulli(0.3),
    Bernoulli(0.05),
    Bernoulli(1e-7),
    BerG(0.1, 0.1),
    Poisson(0.25),
    Geometric(0.8),
    NegBinomial(2.0, 0.9),
    ZJExtended(0.3, 0.5),
]
# Poisson(5000) sends most counts to sample_sum; NegBinomial(2, 0.4) has a long tail
REFERENCE_INNOVATIONS = [Poisson(1.0), Poisson(4.0), NegBinomial(2.0, 0.4), Poisson(5000.0)]


class TestReferenceEngine:
    """``sample_path`` draws what plain ``bisect_right`` on every CDF row,
    with the same row budget and fallback order, would draw."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        counting=st.lists(st.sampled_from(REFERENCE_COUNTING), min_size=1, max_size=3),
        innovation=st.sampled_from(REFERENCE_INNOVATIONS),
        n=st.one_of(st.integers(1, 40), st.integers(300, 1500)),
        burn_in=st.one_of(st.just(0), st.integers(0, 1000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counting=[Bernoulli(1e-7), Poisson(0.25)], innovation=Poisson(70000.0), n=300, burn_in=0, seed=5)
    def test_sample_path_equals_reference(self, counting, innovation, n, burn_in, seed):
        model = GinarModel(counting=tuple(counting), innovation=innovation)
        expected = reference_path(model, n, burn_in, np.random.default_rng(seed))
        assert_array_equal(sample_path(model, n, burn_in, np.random.default_rng(seed)), expected)


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        series = simulate(bernoulli_poisson_model(), SimConfig(n=50, seed=5))
        write_series(path, series)
        assert path.read_text().splitlines()[0] == "count"
        assert_array_equal(read_series(path), series)

    def test_written_bytes_are_csv_writer_crlf(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series(path, np.array([3, 0, 12], dtype=np.int64))
        assert path.read_bytes() == b"count\r\n3\r\n0\r\n12\r\n"

    @pytest.mark.parametrize(
        "series,index",
        [([1.7, -2, 3], 0), ([4, -2, 3], 1), ([0, 2**63], 1), ([1, np.nan], 1), ([True, False], 0)],
        ids=["fraction", "negative", "beyond-int64", "nan", "bool"],
    )
    def test_write_refuses_non_counts_before_opening(self, tmp_path, series, index):
        # the refusal names the index and leaves an existing target as it was
        path = tmp_path / "series.csv"
        path.write_bytes(b"count\r\n7\r\n")
        with pytest.raises(InputError, match=f"index {index}"):
            write_series(path, series)
        assert path.read_bytes() == b"count\r\n7\r\n"
        with pytest.raises(InputError):
            write_series(tmp_path / "new.csv", series)
        assert not (tmp_path / "new.csv").exists()

    @pytest.mark.parametrize(
        "series", [[], np.array([], dtype=np.int64), 5, [[1, 2], [3, 4]]], ids=["empty", "empty-int64", "scalar", "2-D"]
    )
    def test_write_refuses_an_empty_or_not_1d_series_before_opening(self, tmp_path, series):
        # read_series refuses a header-only file, so the writer makes none
        path = tmp_path / "series.csv"
        path.write_bytes(b"count\r\n7\r\n")
        with pytest.raises(InputError, match="nonempty one-dimensional"):
            write_series(path, series)
        assert path.read_bytes() == b"count\r\n7\r\n"
        with pytest.raises(InputError):
            write_series(tmp_path / "new.csv", series)
        assert not (tmp_path / "new.csv").exists()

    def test_write_accepts_whole_floats_and_the_int64_limit(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series(path, [3.0, 0.0, 12.0])
        assert path.read_bytes() == b"count\r\n3\r\n0\r\n12\r\n"
        write_series(path, np.array([2**63 - 1], dtype=np.uint64))
        assert_array_equal(read_series(path), np.array([2**63 - 1]))

    def test_canonical_files_skip_the_csv_loop(self, tmp_path, monkeypatch):
        # written and plain LF, CR or BOM-headed files take the one-step route; a padded count does not
        def no_csv(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", no_csv)  # the module ginar.simulate reads with
        series = simulate(bernoulli_poisson_model(), SimConfig(n=500, seed=5))
        path = tmp_path / "series.csv"
        write_series(path, series)
        assert_array_equal(read_series(path), series)
        for data in (b"3\n0\n\n5\n", b"3\r0\r5", b"\xef\xbb\xbfcount\n\n3\r\n0\n005\n"):
            path.write_bytes(data)
            result = read_series(path)
            assert result.dtype == np.int64
            assert_array_equal(result, np.array([3, 0, 5]))
        path.write_bytes(b"count\n 4 \n2\n")
        with pytest.raises(AssertionError, match="csv.reader called"):
            read_series(path)

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
