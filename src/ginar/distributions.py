"""Nonnegative-integer distributions used as counting sequences and innovations.

Six families are supported: Bernoulli, Poisson, negative binomial, geometric
(support starting at 0), the Zhu-Joe extended-thinning distribution, and the
Bernoulli-geometric convolution BerG. Each family knows its analytic mean and
variance, can draw arrays of values, and can draw the *sum* of ``k``
independent copies in one shot -- the operation the thinning operator needs.
It also tabulates the exact pmf of that sum (``sum_pmf``). Every family but
the Zhu-Joe one is a sum of binomial, Poisson, negative binomial and geometric
``pieces``, so one base class implements all of that for them; the laws are
Panjer's (a, b, 0) class, so one recurrence tabulates every pmf.

The module also houses the kappa families: the maps ``mu -> kappa(mu)`` that
express a family's variance as a function of its mean, which is what the
dispersion test checks.
"""

import functools
import math
import numbers
import re
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError

__all__ = [
    "CountDistribution",
    "Bernoulli",
    "Poisson",
    "NegBinomial",
    "Geometric",
    "ZJExtended",
    "BerG",
    "KappaFamily",
    "BernoulliKappa",
    "PoissonKappa",
    "NegBinomialKappa",
    "parse_distribution",
    "parse_kappa",
]


class CountDistribution:
    """Base class for nonnegative-integer distributions.

    Subclasses are immutable, validate their parameters at construction,
    and expose:

    - ``mean`` / ``variance``: analytic moments,
    - ``sample_array(size, rng)``: vectorized draws,
    - ``sample_sum(count, rng)``: one draw of the sum of ``count``
      independent copies, using the family's exact convolution law,
    - ``sum_pmf(count)``: the pmf of that same sum as a float array over
      0, 1, ..., truncated where the remaining tail is below 1e-18, or
      ``None`` when the law cannot be tabulated (P(0) underflows, or the
      row would exceed 2**20 entries).

    A family is the sum of independent ``pieces``, tuples ``(law, size, q)``
    over the law table ``_LAWS``, and this class implements the five members
    from them: the sum of ``count`` copies is every piece at size ``count *
    size``, drawn in piece order, and its pmf the convolution of their rows.
    ``ZJExtended``, a compound law, overrides them.

    All sampling takes an explicit ``numpy.random.Generator`` so parallel
    callers never share mutable state.
    """

    @property
    def mean(self):
        return sum(_LAWS[law].mean(n, q) for law, n, q in self.pieces)

    @property
    def variance(self):
        return sum(_LAWS[law].variance(n, q) for law, n, q in self.pieces)

    def sample_array(self, size, rng):
        (law, n, q), *rest = self.pieces
        draws = _LAWS[law].draw(rng, n, q, size)
        for law, n, q in rest:
            draws += _LAWS[law].draw(rng, n, q, size)
        return draws

    def sample_sum(self, count, rng):
        if count == 0:
            return 0
        return sum(int(_LAWS[law].draw(rng, count * n, q)) for law, n, q in self.pieces)

    def sum_pmf(self, count):
        rows = [_LAWS[law].pmf(count * n, q) for law, n, q in self.pieces]
        return None if any(row is None for row in rows) else functools.reduce(np.convolve, rows)


def _require(condition, message):
    if not condition:
        raise InputError(message)


def _require_reals(family):
    """Raise ``InputError`` unless every parameter of ``family`` is a real number; a bool is refused."""
    for field in fields(family):
        value = getattr(family, field.name)
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise InputError(f"{type(family).__name__} {field.name} must be a real number, got {value!r}")


# Tabulation stops once the mass left beyond the row is provably below this.
_TAIL = 1e-18
# A P(0) below the smallest normal float counts as underflow.
_TINY = float(np.finfo(np.float64).tiny)
# Rows longer than this are refused (None) rather than tabulated.
_MAX_ROW = 1 << 20
# numpy's Generator.poisson refuses a rate above this; negative_binomial refuses (r, p)
# whose gamma mixing draw (mean r(1-p)/p, sd sqrt(r)(1-p)/p) has mean + 10 sd above it.
_LAM_MAX = (2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)


def _panjer_pmf(a, b, p0, last=None):
    """pmf of an (a, b, 0) law: P(x) = (a + b/x) P(x-1), starting from P(0) = p0.

    Stops at ``x = last`` if given (the binomial support ends there), else
    once the pmf is decreasing and its tail is negligible: for y > x every
    ratio ``a + b/y`` is at most ``rho = max(a + b/(x+1), a)``, so when
    ``rho < 1`` the mass beyond x is at most ``P(x) rho / (1 - rho)``.
    Returns None when p0 underflows to a subnormal or the row would exceed
    ``_MAX_ROW`` entries.
    """
    if not p0 >= _TINY:
        return None
    pmf = [p0]
    px, x, ratio = p0, 0, a + b
    while x != last:
        x += 1
        px *= ratio
        pmf.append(px)
        ratio = a + b / (x + 1)
        rho = ratio if ratio > a else a
        if rho < 1.0 and px * rho <= _TAIL * (1.0 - rho):
            break
        if x >= _MAX_ROW:
            return None
    return np.array(pmf)


def _binomial_pmf(count, prob):
    """pmf of Binomial(count, prob) on 0..count (or shorter, past a negligible tail)."""
    if prob >= 1.0:
        pmf = np.zeros(count + 1)
        pmf[count] = 1.0
        return pmf
    odds = prob / (1.0 - prob)
    return _panjer_pmf(-odds, (count + 1) * odds, math.exp(count * math.log1p(-prob)), last=count)


def _negbin_pmf(r, prob):
    """pmf of NB(r, prob): failures before the r-th success."""
    return _panjer_pmf(1.0 - prob, (r - 1.0) * (1.0 - prob), prob**r)


# The laws a piece follows, at size n with parameter q: ``draw(rng, n, q,
# size=None)`` draws an array of ``size`` (one value when None), ``pmf(n, q)``
# tabulates the law, ``mean(n, q)`` and ``variance(n, q)`` give its moments.
# A geometric piece has size 1: its arrays are numpy's geometric on {1, 2, ...}
# shifted down, and its n-fold sum is NB(n, q).
_Law = namedtuple("_Law", "draw pmf mean variance")
_NEGBIN_MOMENTS = (lambda n, q: n * (1.0 - q) / q, lambda n, q: n * (1.0 - q) / q**2)
_LAWS = {
    "binomial": _Law(
        lambda rng, n, q, size=None: rng.binomial(n, q, size),
        _binomial_pmf,
        lambda n, q: n * q,
        lambda n, q: n * q * (1.0 - q),
    ),
    "poisson": _Law(
        lambda rng, n, q, size=None: rng.poisson(n * q, size),
        lambda n, q: _panjer_pmf(0.0, n * q, math.exp(-(n * q))),
        lambda n, q: n * q,
        lambda n, q: n * q,
    ),
    "negbin": _Law(lambda rng, n, q, size=None: rng.negative_binomial(n, q, size), _negbin_pmf, *_NEGBIN_MOMENTS),
    "geometric": _Law(
        lambda rng, n, q, size=None: rng.negative_binomial(n, q) if size is None else rng.geometric(q, size) - 1,
        _negbin_pmf,
        *_NEGBIN_MOMENTS,
    ),
}


@dataclass(frozen=True)
class Bernoulli(CountDistribution):
    """Bernoulli(prob) on {0, 1}; as a counting sequence this is binomial thinning."""

    prob: float

    def __post_init__(self):
        _require_reals(self)
        _require(0.0 < self.prob < 1.0, f"Bernoulli prob must lie in (0,1), got {self.prob}")

    @property
    def pieces(self):
        return (("binomial", 1, self.prob),)


@dataclass(frozen=True)
class Poisson(CountDistribution):
    """Poisson(rate)."""

    rate: float

    def __post_init__(self):
        _require_reals(self)
        _require(
            0.0 < self.rate <= _LAM_MAX,
            f"Poisson rate must be positive and finite, at most {_LAM_MAX:.6g}, got {self.rate}",
        )

    @property
    def pieces(self):
        return (("poisson", 1, self.rate),)


@dataclass(frozen=True)
class NegBinomial(CountDistribution):
    """Negative binomial with ``r`` successes and success probability ``prob``.

    Counts failures before the r-th success: support {0, 1, ...}, mean
    r(1-prob)/prob, variance r(1-prob)/prob**2. ``r`` may be any positive
    real and is treated as a fixed known constant.
    """

    r: float
    prob: float

    def __post_init__(self):
        _require_reals(self)
        _require(
            0.0 < self.r < math.inf, f"NegBinomial r must be positive and finite, got {self.r}"
        )
        _require(0.0 < self.prob < 1.0, f"NegBinomial prob must lie in (0,1), got {self.prob}")
        _require(
            self.mean * (1.0 + 10.0 / math.sqrt(self.r)) <= _LAM_MAX,
            f"NegBinomial(r={self.r}, prob={self.prob}) is beyond numpy's sampler limit",
        )

    @property
    def pieces(self):
        return (("negbin", self.r, self.prob),)


@dataclass(frozen=True)
class Geometric(CountDistribution):
    """Geometric(prob) on {0, 1, ...} with mean (1-prob)/prob.

    Note the convention: support starts at 0 (failures before the first
    success). The shifted variant on {1, 2, ...} appears only inside
    ``ZJExtended``.
    """

    prob: float

    def __post_init__(self):
        _require_reals(self)
        _require(0.0 < self.prob < 1.0, f"Geometric prob must lie in (0,1), got {self.prob}")

    @property
    def pieces(self):
        return (("geometric", 1, self.prob),)


@dataclass(frozen=True)
class ZJExtended(CountDistribution):
    """Zhu-Joe extended-thinning distribution with mean ``mu``, dependence ``gamma``.

    Generated as B * G with independent B ~ Bernoulli(b) and G a shifted
    geometric on {1, 2, ...} with success probability q, where

        b = (1 - gamma) * mu / (1 - gamma * mu),
        q = (1 - gamma) / (1 - gamma * mu).

    This is the unique parameterization of the product construction whose
    probability generating function equals
    ((1-mu) + (mu-gamma) k) / (1 - mu*gamma - (1-mu)*gamma*k),
    giving mean mu and variance mu(1-mu)(1+gamma)/(1-gamma). At gamma = 0
    the family degenerates to Bernoulli(mu).
    """

    mu: float
    gamma: float

    def __post_init__(self):
        _require_reals(self)
        _require(0.0 <= self.mu <= 1.0, f"ZJExtended mu must lie in [0,1], got {self.mu}")
        _require(0.0 <= self.gamma < 1.0, f"ZJExtended gamma must lie in [0,1), got {self.gamma}")

    @property
    def mean(self):
        return self.mu

    @property
    def variance(self):
        return self.mu * (1.0 - self.mu) * (1.0 + self.gamma) / (1.0 - self.gamma)

    @property
    def _bernoulli_prob(self):
        return (1.0 - self.gamma) * self.mu / (1.0 - self.gamma * self.mu)

    @property
    def _shifted_geom_prob(self):
        return (1.0 - self.gamma) / (1.0 - self.gamma * self.mu)

    def sample_array(self, size, rng):
        if self.mu == 0.0:
            return np.zeros(size, dtype=np.int64)
        hits = rng.binomial(1, self._bernoulli_prob, size=size)
        return hits * rng.geometric(self._shifted_geom_prob, size=size)

    def sample_sum(self, count, rng):
        # Of count draws, Binomial(count, b) are nonzero; each nonzero draw
        # is 1 + Geometric0(q), so the sum is m + NB(m, q) given m nonzero.
        if count == 0 or self.mu == 0.0:
            return 0
        m = int(rng.binomial(count, self._bernoulli_prob))
        if m == 0:
            return 0
        return m + int(rng.negative_binomial(m, self._shifted_geom_prob))

    def sum_pmf(self, count):
        # Mixture over m ~ Bin(count, b) of m + NB(m, q).
        weights = _binomial_pmf(count, self._bernoulli_prob)
        if weights is None:
            return None
        parts = [np.ones(1)] + [
            _negbin_pmf(m, self._shifted_geom_prob) for m in range(1, len(weights))
        ]
        if any(part is None for part in parts):
            return None
        pmf = np.zeros(max(m + len(part) for m, part in enumerate(parts)))
        for m, (part, weight) in enumerate(zip(parts, weights)):
            pmf[m : m + len(part)] += weight * part
        return pmf


@dataclass(frozen=True)
class BerG(CountDistribution):
    """BerG(pi, xi): independent Bernoulli(pi) plus Geometric(1/(1+xi)).

    Mean pi + xi, variance (pi+xi)(1 - (pi+xi) + 2*xi). Overdispersed
    relative to a Bernoulli with the same mean whenever xi > 0, which is
    what makes it the alternative family of the dispersion test. The
    moments are written out: the pieces' sum pi + (1-q)/q is not bitwise
    pi + xi.
    """

    pi: float
    xi: float

    def __post_init__(self):
        _require_reals(self)
        _require(0.0 < self.pi < 1.0, f"BerG pi must lie in (0,1), got {self.pi}")
        _require(0.0 < self.xi < math.inf, f"BerG xi must be positive and finite, got {self.xi}")

    @property
    def pieces(self):
        return (("binomial", 1, self.pi), ("geometric", 1, 1.0 / (1.0 + self.xi)))

    @property
    def mean(self):
        return self.pi + self.xi

    @property
    def variance(self):
        m = self.mean
        return m * (1.0 - m + 2.0 * self.xi)


class KappaFamily:
    """A map mu -> kappa(mu) giving a family's variance at mean mu.

    Every family used is a quadratic through the origin, kappa(mu) =
    (a + s mu) mu / b with kappa'(mu) = 1 + 2 s mu / b, so a family is data:
    its ``coefficients`` (a, s, b) and ``upper``, the open end of its
    admissible mean range (0, upper). ``value`` and ``derivative`` evaluate
    the formulas on all of R; ``admissible`` tells whether mu lies in the
    range. The test pipeline warns about inadmissible means and proceeds, so
    a boundary-ish estimate does not abort a whole Monte Carlo run.
    """

    name = "kappa"
    upper = math.inf

    def admissible(self, mu):
        return 0.0 < mu < self.upper

    def value(self, mu):
        a, s, b = self.coefficients
        return (a + s * mu) * mu / b

    def derivative(self, mu):
        _, s, b = self.coefficients
        return 1.0 + 2.0 * s * mu / b


@dataclass(frozen=True)
class BernoulliKappa(KappaFamily):
    """kappa(mu) = mu(1-mu) on (0, 1)."""

    name = "bernoulli"
    coefficients = (1.0, -1.0, 1.0)
    upper = 1.0


@dataclass(frozen=True)
class PoissonKappa(KappaFamily):
    """kappa(mu) = mu on (0, inf)."""

    name = "poisson"
    coefficients = (1.0, 0.0, 1.0)


@dataclass(frozen=True)
class NegBinomialKappa(KappaFamily):
    """kappa(mu) = (mu + r) * mu / r on (0, inf), for fixed known r > 0."""

    r: float

    name = "negbinomial"

    def __post_init__(self):
        _require_reals(self)
        _require(
            0.0 < self.r < math.inf, f"NegBinomialKappa r must be positive and finite, got {self.r}"
        )

    @property
    def coefficients(self):
        return (self.r, 1.0, self.r)


# --- configuration-text parsing ------------------------------------------

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")

# family name -> (constructor, {accepted key: canonical key}), every canonical key
# required; one table for count distributions and one for kappa families
_DIST_FAMILIES = {
    "bernoulli": (Bernoulli, {"p": "prob", "prob": "prob"}),
    "poisson": (Poisson, {"rate": "rate", "lam": "rate", "lambda": "rate"}),
    "negbinomial": (NegBinomial, {"r": "r", "successes": "r", "p": "prob", "prob": "prob"}),
    "geometric": (Geometric, {"p": "prob", "prob": "prob"}),
    "zj": (ZJExtended, {"mu": "mu", "gamma": "gamma"}),
    "zjextended": (ZJExtended, {"mu": "mu", "gamma": "gamma"}),
    "berg": (BerG, {"pi": "pi", "xi": "xi"}),
}

_KAPPA_FAMILIES = {
    "bernoulli": (BernoulliKappa, {}),
    "poisson": (PoissonKappa, {}),
    "negbinomial": (NegBinomialKappa, {"r": "r"}),
}


def _parse_spec(text, families, what):
    """Build the object a ``name(key=value, ...)`` spec names in ``families``."""
    match = _SPEC_RE.match(text)
    if not match:
        raise InputError(f"cannot parse {what} spec {text!r}")
    family, body = match.group(1).lower(), match.group(2)
    if family not in families:
        raise InputError(f"unknown {what} family {family!r} (known: {', '.join(sorted(families))})")
    ctor, aliases = families[family]
    params = {}
    for token in body.split(",") if body else ():
        key, eq, raw = token.partition("=")
        key = key.strip().lower()
        if not eq:
            raise InputError(f"expected key=value, got {token.strip()!r} in {text!r}")
        if key not in aliases:
            raise InputError(f"unknown parameter {key!r} for {what} family {family!r} in {text!r}")
        try:
            value = float(raw.strip())
        except ValueError:
            raise InputError(f"bad numeric value {raw.strip()!r} in {text!r}") from None
        canon = aliases[key]
        if canon in params:
            raise InputError(f"duplicate parameter {canon!r} in {text!r}")
        params[canon] = value
    missing = [k for k in dict.fromkeys(aliases.values()) if k not in params]
    if missing:
        raise InputError(f"missing parameter(s) {missing} for {what} family {family!r} in {text!r}")
    return ctor(**params)


def parse_distribution(text):
    """Parse a spec string like ``berg(pi=0.2, xi=0.1)`` into a distribution.

    Family names are case-insensitive. Raises ``InputError`` naming the
    offending token on any malformed input.
    """
    return _parse_spec(text, _DIST_FAMILIES, "distribution")


def parse_kappa(text):
    """Parse a kappa family token: ``bernoulli``, ``poisson``, ``negbinomial(r=2)``."""
    return _parse_spec(text, _KAPPA_FAMILIES, "kappa")
