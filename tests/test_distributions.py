import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from ginar.distributions import (
    BerG,
    Bernoulli,
    BernoulliKappa,
    Geometric,
    NegBinomial,
    NegBinomialKappa,
    Poisson,
    PoissonKappa,
    ZJExtended,
    parse_distribution,
    parse_kappa,
)
from ginar.errors import InputError

ALL_FAMILIES = [
    Bernoulli(0.3),
    Poisson(1.0),
    NegBinomial(2.0, 0.4),
    Geometric(0.35),
    ZJExtended(0.5, 0.5),
    BerG(0.2, 0.1),
]


class TestMoments:
    def test_bernoulli(self):
        d = Bernoulli(0.3)
        assert d.mean == 0.3
        assert_allclose(d.variance, 0.21)

    def test_poisson(self):
        d = Poisson(1.5)
        assert d.mean == 1.5
        assert d.variance == 1.5

    def test_negbinomial(self):
        d = NegBinomial(2.0, 0.4)
        assert_allclose(d.mean, 2.0 * 0.6 / 0.4)
        assert_allclose(d.variance, 2.0 * 0.6 / 0.16)

    def test_geometric_support_zero_convention(self):
        d = Geometric(0.25)
        assert_allclose(d.mean, 3.0)
        assert_allclose(d.variance, 12.0)

    def test_berg(self):
        d = BerG(0.2, 0.1)
        assert_allclose(d.mean, 0.3)
        assert_allclose(d.variance, 0.3 * (1.0 - 0.3 + 0.2))  # mu(1 - mu + 2 xi)

    def test_zj_mean_is_mu(self):
        assert ZJExtended(0.5, 0.0).mean == 0.5

    def test_zj_variance(self):
        assert_allclose(ZJExtended(0.5, 0.5).variance, 0.25 * 3.0)
        assert_allclose(ZJExtended(0.5, 0.0).variance, 0.25)


class TestValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: Bernoulli(0.0),
            lambda: Bernoulli(1.0),
            lambda: Poisson(0.0),
            lambda: Poisson(-1.0),
            lambda: NegBinomial(0.0, 0.4),
            lambda: NegBinomial(2.0, 1.0),
            lambda: Geometric(0.0),
            lambda: ZJExtended(-0.1, 0.5),
            lambda: ZJExtended(1.1, 0.5),
            lambda: ZJExtended(0.5, 1.0),
            lambda: BerG(0.0, 0.1),
            lambda: BerG(0.2, 0.0),
            lambda: Poisson(math.inf),
            lambda: Poisson(math.nan),
            lambda: NegBinomial(math.inf, 0.4),
            lambda: BerG(0.2, math.inf),
            lambda: NegBinomialKappa(math.inf),
            lambda: NegBinomialKappa(math.nan),
            lambda: Poisson(1e19),
            lambda: NegBinomial(1e300, 0.5),
            lambda: NegBinomial(1.0, 1e-300),
        ],
    )
    def test_out_of_range_parameters_rejected(self, ctor):
        with pytest.raises(ValueError):
            ctor()

    def test_accepts_exactly_what_numpy_can_sample(self):
        # Poisson and NegBinomial refuse the parameters numpy's samplers refuse
        rng = np.random.default_rng(0)

        def numpy_samples(draw, *args):
            try:
                draw(*args)
            except ValueError:
                return False
            return True

        def constructs(ctor, *args):
            try:
                ctor(*args)
            except InputError:
                return False
            return True

        for rate in (1e18, 9.2e18, 9.223372006484771e18, 9.223372006484772e18, 9.3e18):
            assert constructs(Poisson, rate) == numpy_samples(rng.poisson, rate), rate
        for r in np.logspace(-3, 20, 24):
            for prob in np.logspace(-20, -0.01, 24):
                assert constructs(NegBinomial, r, prob) == numpy_samples(
                    rng.negative_binomial, r, prob
                ), (r, prob)


class TestSampling:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_draws_are_nonnegative_integers(self, dist):
        rng = np.random.default_rng(3)
        draws = dist.sample_array(5000, rng)
        assert np.issubdtype(draws.dtype, np.integer)
        assert np.all(draws >= 0)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_moments_match_within_five_se(self, dist):
        rng = np.random.default_rng(11)
        draws = dist.sample_array(200_000, rng).astype(np.float64)
        n = len(draws)
        mean_se = draws.std() / np.sqrt(n)
        assert abs(draws.mean() - dist.mean) < 5.0 * mean_se
        m4 = np.mean((draws - draws.mean()) ** 4)
        var_se = np.sqrt(max(m4 - draws.var() ** 2, 0.0) / n)
        assert abs(draws.var() - dist.variance) < 5.0 * var_se

    def test_bernoulli_near_one_draws_ones(self):
        rng = np.random.default_rng(5)
        draws = Bernoulli(1.0 - 1e-12).sample_array(10_000, rng)
        assert np.all(draws == 1)

    def test_berg_small_xi_degenerates_to_bernoulli(self):
        # xi -> 0 should collapse the geometric part almost surely
        rng = np.random.default_rng(17)
        draws = BerG(0.4, 1e-8).sample_array(1_000_000, rng)
        assert np.mean(draws > 1) < 1e-4

    def test_zj_gamma_zero_is_bernoulli(self):
        rng = np.random.default_rng(23)
        draws = ZJExtended(0.5, 0.0).sample_array(100_000, rng)
        assert set(np.unique(draws)) <= {0, 1}
        assert abs(draws.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_sample_sum_matches_brute_force_law(self, dist):
        # sample_sum(k) must be distributed as the sum of k single draws;
        # compare first two moments over many replications
        k, reps = 7, 40_000
        rng = np.random.default_rng(29)
        brute = dist.sample_array((reps, k), rng).sum(axis=1).astype(np.float64)
        agg = np.array([dist.sample_sum(k, rng) for _ in range(reps)], dtype=np.float64)
        mean_se = np.hypot(brute.std(), agg.std()) / np.sqrt(reps)
        assert abs(brute.mean() - agg.mean()) < 5.0 * mean_se
        assert abs(brute.mean() - k * dist.mean) < 5.0 * mean_se
        # variances: allow 5 sigma on the fourth-moment-based SE
        m4 = np.mean((brute - brute.mean()) ** 4)
        var_se = np.sqrt(2.0 * max(m4 - brute.var() ** 2, 1e-12) / reps)
        assert abs(brute.var() - agg.var()) < 5.0 * var_se

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_sample_sum_zero_count(self, dist):
        rng = np.random.default_rng(31)
        assert dist.sample_sum(0, rng) == 0


def _padded(a, b):
    size = max(len(a), len(b))
    return np.pad(a, (0, size - len(a))), np.pad(b, (0, size - len(b)))


class TestSumPmf:
    """``sum_pmf(k)`` is the exact law that ``sample_sum(k, rng)`` draws from."""

    SCIPY_LAWS = [
        (Bernoulli(0.3), lambda x, k: stats.binom.pmf(x, k, 0.3)),
        (Poisson(1.0), lambda x, k: stats.poisson.pmf(x, k * 1.0)),
        (NegBinomial(2.0, 0.4), lambda x, k: stats.nbinom.pmf(x, k * 2.0, 0.4)),
        (Geometric(0.35), lambda x, k: stats.nbinom.pmf(x, k, 0.35)),
    ]

    @pytest.mark.parametrize("dist,law", SCIPY_LAWS, ids=[type(d).__name__ for d, _ in SCIPY_LAWS])
    @pytest.mark.parametrize("count", [1, 2, 5, 20])
    def test_matches_scipy(self, dist, law, count):
        pmf = dist.sum_pmf(count)
        x = np.arange(len(pmf) + 50)
        got, want = _padded(pmf, law(x, count))
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("count", [1, 2, 5, 20])
    def test_equals_k_fold_convolution(self, dist, count):
        pmf = dist.sum_pmf(count)
        single = dist.sum_pmf(1)
        conv = np.ones(1)
        for _ in range(count):
            conv = np.convolve(conv, single)
        got, want = _padded(pmf, conv)
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert abs(pmf @ np.arange(len(pmf)) - count * dist.mean) < 1e-12 * max(1.0, count * dist.mean)

    @pytest.mark.parametrize("prob", [0.3, 0.9, 1.0 - 1e-15])
    def test_binomial_rows_stop_at_count(self, prob):
        pmf = Bernoulli(prob).sum_pmf(7)
        assert len(pmf) <= 8
        assert np.all(pmf >= 0.0)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert abs(pmf @ np.arange(len(pmf)) - 7 * prob) < 1e-12

    def test_geometric_tail_stop_terminates(self):
        # a loop stopping only at CDF >= 1 - 2**-53 never ends here
        pmf = Geometric(0.35).sum_pmf(1)
        assert len(pmf) < 200
        assert abs(pmf.sum() - 1.0) < 1e-15

    def test_underflowing_zero_mass_is_refused(self):
        assert Poisson(5000.0).sum_pmf(1) is None
        assert Bernoulli(0.999).sum_pmf(200) is None

    def test_row_that_never_decreases_is_refused(self):
        # prob 1e-17 rounds the (a, b, 0) ratio 1 - prob to exactly 1.0
        assert Geometric(1e-17).sum_pmf(1) is None

    @pytest.mark.parametrize(
        "dist", ALL_FAMILIES + [ZJExtended(0.0, 0.4)], ids=lambda d: type(d).__name__
    )
    def test_zero_count_is_point_mass(self, dist):
        pmf = dist.sum_pmf(0)
        assert pmf[0] == 1.0 and np.all(pmf[1:] == 0.0)

    @pytest.mark.parametrize("mu,point", [(0.0, 0), (1.0, 3)])
    def test_zj_boundary_means_are_point_masses(self, mu, point):
        pmf = ZJExtended(mu, 0.4).sum_pmf(3)
        assert pmf[point] == 1.0 and pmf.sum() == 1.0


class TestKappaFamilies:
    def test_bernoulli_values(self):
        k = BernoulliKappa()
        assert_allclose(k.value(0.5), 0.25)
        assert_allclose(k.derivative(0.5), 0.0)
        assert_allclose(k.derivative(0.3), 0.4)

    def test_poisson_identity(self):
        k = PoissonKappa()
        assert k.value(1.0) == 1.0
        for mu in (0.1, 1.0, 7.3):
            assert k.derivative(mu) == 1.0

    def test_negbinomial_values(self):
        k = NegBinomialKappa(r=2.0)
        assert_allclose(k.value(2.0), 4.0)
        assert_allclose(k.derivative(2.0), 3.0)

    @pytest.mark.parametrize(
        "family,grid",
        [
            (BernoulliKappa(), np.linspace(0.05, 0.95, 20)),
            (PoissonKappa(), np.linspace(0.1, 10.0, 20)),
            (NegBinomialKappa(r=2.0), np.linspace(0.1, 10.0, 20)),
            (NegBinomialKappa(r=0.7), np.linspace(0.1, 10.0, 20)),
        ],
    )
    def test_derivative_matches_central_difference(self, family, grid):
        h = 1e-6
        for mu in grid:
            numeric = (family.value(mu + h) - family.value(mu - h)) / (2.0 * h)
            exact = family.derivative(mu)
            assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_extended_evaluation_ignores_range(self):
        k = BernoulliKappa()
        assert not k.admissible(1.5) and not k.admissible(-0.1)
        assert not PoissonKappa().admissible(0.0)
        assert not NegBinomialKappa(r=1.0).admissible(-2.0)
        assert_allclose(k.value(1.5), 1.5 * (1.0 - 1.5))
        assert_allclose(k.derivative(1.5), -2.0)


class TestZJParameterization:
    """The shifted-geometric parameter inside the product construction is
    ambiguous on paper; the implemented reading q = (1-gamma)/(1-gamma*mu)
    is pinned here by checking the construction reproduces both analytic
    moments."""

    @pytest.mark.parametrize("mu,gamma", [(0.5, 0.5), (0.3, 0.2), (0.8, 0.7), (0.5, 0.0)])
    def test_construction_reproduces_moments(self, mu, gamma):
        dist = ZJExtended(mu, gamma)
        rng = np.random.default_rng(37)
        draws = dist.sample_array(400_000, rng).astype(np.float64)
        n = len(draws)
        assert abs(draws.mean() - dist.mean) < 5.0 * draws.std() / np.sqrt(n)
        m4 = np.mean((draws - draws.mean()) ** 4)
        var_se = np.sqrt(max(m4 - draws.var() ** 2, 1e-12) / n)
        assert abs(draws.var() - dist.variance) < 5.0 * var_se


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("bernoulli(p=0.3)", Bernoulli(0.3)),
            ("BERNOULLI(P=0.3)", Bernoulli(0.3)),
            ("bernoulli(prob=0.3)", Bernoulli(0.3)),
            ("poisson(rate=1.0)", Poisson(1.0)),
            ("poisson(lambda=2)", Poisson(2.0)),
            ("negbinomial(r=2, p=0.4)", NegBinomial(2.0, 0.4)),
            ("geometric(p=0.25)", Geometric(0.25)),
            ("zj(mu=0.5, gamma=0.5)", ZJExtended(0.5, 0.5)),
            ("zjextended(mu=0.5,gamma=0.1)", ZJExtended(0.5, 0.1)),
            ("berg(pi=0.2,xi=0.1)", BerG(0.2, 0.1)),
            ("  berg( pi = 0.2 , xi = 0.1 ) ", BerG(0.2, 0.1)),
        ],
    )
    def test_round_trips(self, text, expected):
        assert parse_distribution(text) == expected

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("weibull(k=2)", "weibull"),
            ("bernoulli(q=0.3)", "'q'"),
            ("bernoulli()", "missing"),
            ("bernoulli(p=zero)", "zero"),
            ("bernoulli(p=0.3,prob=0.4)", "duplicate"),
            ("bernoulli(p=0.3", "parse"),
            ("berg(pi=0.2)", "missing"),
            ("bernoulli(p=1.5)", "(0,1)"),
            ("poisson(lambda=1e400)", "finite"),
            ("negbinomial(r=inf,p=0.5)", "finite"),
        ],
    )
    def test_errors_identify_offending_token(self, text, fragment):
        with pytest.raises(InputError) as excinfo:
            parse_distribution(text)
        assert fragment.lower() in str(excinfo.value).lower()

    def test_parse_kappa(self):
        assert parse_kappa("bernoulli") == BernoulliKappa()
        assert parse_kappa("Poisson") == PoissonKappa()
        assert parse_kappa("negbinomial(r=2)") == NegBinomialKappa(r=2.0)

    @pytest.mark.parametrize(
        "text",
        [
            "gamma",
            "negbinomial",
            "bernoulli(p=0.5)",
            "negbinomial(s=2)",
            "negbinomial(r=inf)",
            "negbinomial(r=nan)",
            "negbinomial(r=1e400)",
        ],
    )
    def test_parse_kappa_errors(self, text):
        with pytest.raises(InputError):
            parse_kappa(text)
