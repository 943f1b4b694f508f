"""Simulation of generalized INAR(p) count series.

The process follows the thinning recursion

    Z_t = sum_{i=1..p} thin(counting[i], Z_{t-i}) + eps_t,

where ``thin(spec, k)`` is the sum of ``k`` independent draws from the lag's
counting-sequence distribution and ``eps_t`` is an i.i.d. innovation. The
recursion is started from ``p`` pre-sample values drawn from the innovation
distribution and a burn-in stretch (default 1000 steps) is discarded, so the
returned stretch is effectively stationary.

Each thinning sum is drawn by inverse transform: ``sample_path`` tabulates
the CDF of ``thin(spec, k)`` from ``spec.sum_pmf(k)`` the first time a lag
sees count ``k`` and maps one uniform to a count by binary search. Counts
whose row would be long (mean + 10 sd above 64 entries), whose law cannot be
tabulated, or that would push the path's tables past one entry per step are
drawn with ``spec.sample_sum(k, rng)`` instead. Both routes draw the same
exact law.

Reproducibility: ``simulate`` is a pure function of (model, config); the
seed drives a dedicated PCG64 stream, so identical inputs give bitwise
identical series. Callers that manage their own substreams (the Monte Carlo
harness) can use ``sample_path`` with an explicit generator.
"""

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .distributions import CountDistribution
from .errors import InputError

__all__ = [
    "check_stationarity",
    "GinarModel",
    "SimConfig",
    "sample_path",
    "simulate",
    "read_series",
    "write_series",
]

# Counts whose thinning sum has mean + 10 sd above this are drawn with
# ``sample_sum`` instead of a table row.
_ROW_LIMIT = 64
_UNSEEN = object()
_INT64_MAX = int(np.iinfo(np.int64).max)


def check_stationarity(means):
    """True iff counting-sequence means admit a strictly stationary process.

    For nonnegative means the root condition
    ``1 - mu_1 z - ... - mu_p z^p != 0 on |z| <= 1`` is equivalent to
    ``sum(mu_i) < 1``: on the closed unit disk the lag polynomial's modulus
    is at least ``1 - sum(mu_i |z|^i) >= 1 - sum(mu_i)``, and at z = 1 the
    bound is attained. Negative means are rejected outright (counting
    sequences are nonnegative random variables).
    """
    mu = np.asarray(means, dtype=np.float64)
    if not np.all(np.isfinite(mu)):
        return False
    return bool(np.all(mu >= 0.0) and mu.sum() < 1.0)


@dataclass(frozen=True)
class GinarModel:
    """A generalized INAR(p) model: one counting spec per lag plus an innovation.

    The order p is the number of counting specs. Construction fails unless
    the counting means satisfy the stationarity condition and the stationary
    mean mu_eps / (1 - sum mu_i) is at most 2**53, the float64 count limit.
    """

    counting: tuple
    innovation: CountDistribution

    def __post_init__(self):
        counting = tuple(self.counting)
        object.__setattr__(self, "counting", counting)
        if len(counting) < 1:
            raise InputError("GinarModel needs at least one counting-sequence spec")
        for spec in counting + (self.innovation,):
            if not isinstance(spec, CountDistribution):
                raise InputError(f"expected a CountDistribution, got {spec!r}")
        means = self.counting_means
        if not check_stationarity(means):
            raise InputError(
                f"counting-sequence means violate stationarity (need all >= 0 and sum < 1, got {means.tolist()})"
            )
        mean = self.innovation.mean / (1.0 - means.sum())
        if not mean <= 2.0**53:
            raise InputError(f"stationary mean {mean:.6g} exceeds 2**53: counts could not be fitted exactly")

    @property
    def order(self):
        return len(self.counting)

    @property
    def counting_means(self):
        return np.array([spec.mean for spec in self.counting])


@dataclass(frozen=True)
class SimConfig:
    """Length, burn-in, and seed for one simulated path."""

    n: int
    burn_in: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"series length must be positive, got {self.n}")
        if self.burn_in < 0:
            raise InputError(f"burn-in must be nonnegative, got {self.burn_in}")
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _cdf_row(spec, count, budget):
    """CDF of ``thin(spec, count)`` as a list, or None to draw it with ``sample_sum``.

    None when the row would be long (mean + 10 sd beyond ``_ROW_LIMIT``) or
    would not fit in the path's remaining ``budget`` of table entries, and
    when the law cannot be tabulated. Both length checks use the mean + 10 sd
    estimate, so no row is built only to be thrown away.
    """
    size = count * spec.mean + 10.0 * math.sqrt(count * spec.variance) + 1.0
    if size > _ROW_LIMIT or size > budget:
        return None
    pmf = spec.sum_pmf(count)
    if pmf is None:
        return None
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # the row holds all the mass, so a draw never leaves it
    return cdf.tolist()


def sample_path(model, n, burn_in, rng):
    """Generate ``n`` post-burn-in values of the recursion with caller's rng.

    Stream layout: the ``p`` initial innovations, the ``burn_in + n`` step
    innovations, then ``(burn_in + n) * p`` uniforms. Lag ``i + 1`` at step
    ``t`` (both counted from 0) consumes uniform ``t * p + i`` whether or not
    its count is 0. Fallback draws through ``sample_sum`` come after all of
    these.
    """
    p = model.order
    steps = burn_in + n
    if steps * p > _INT64_MAX:
        raise InputError(f"{steps:.6g} steps of {p} lags exceed numpy's largest array")
    path = model.innovation.sample_array(p, rng).tolist()
    path.extend(model.innovation.sample_array(steps, rng).tolist())
    uniforms = rng.random(steps * p).tolist()
    lags = [(i + 1, spec, {}) for i, spec in enumerate(model.counting)]
    budget = steps
    u = 0
    for t in range(p, p + steps):
        z = path[t]
        for lag, spec, rows in lags:
            count = path[t - lag]
            if count:
                row = rows.get(count, _UNSEEN)
                if row is _UNSEEN:
                    row = rows[count] = _cdf_row(spec, count, budget)
                    if row is not None:
                        budget -= len(row)
                z += spec.sample_sum(count, rng) if row is None else bisect_right(row, uniforms[u])
            u += 1
        path[t] = z
    return np.array(path[p + burn_in :], dtype=np.int64)


def simulate(model, config):
    """Simulate a strictly stationary GINAR(p) path.

    Deterministic: identical ``(model, config)`` inputs give identical
    output. Requires ``config.n >= p + 2`` so downstream estimation has at
    least one regression row plus slack.
    """
    if config.n < model.order + 2:
        raise InputError(
            f"series length {config.n} too short for order {model.order} "
            f"(need at least p + 2 = {model.order + 2})"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    return sample_path(model, config.n, config.burn_in, rng)


def read_series(path):
    """Read a single-column UTF-8 count CSV (optional byte order mark and ``count`` header).

    Returns an int64 array. Raises ``InputError`` with the line number on
    undecodable bytes, malformed CSV, and the first non-integer, negative
    or above-int64 value; and on empty files.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    values = []
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
        for row in reader:
            lineno = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1:
                raise InputError(f"{path}: line {lineno}: expected a single column")
            token = row[0].strip()
            if lineno == 1 and token.lower() == "count":
                continue
            try:
                value = int(token)
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: not a nonnegative integer: {token!r}"
                ) from None
            if value < 0:
                raise InputError(f"{path}: line {lineno}: negative count {value}")
            if value > _INT64_MAX:
                raise InputError(f"{path}: line {lineno}: count {value} exceeds 2**63 - 1")
            values.append(value)
    except UnicodeDecodeError as exc:
        lineno = len((exc.object[: exc.start] + b".").splitlines())
        raise InputError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not values:
        raise InputError(f"{path}: no observations found")
    return np.array(values, dtype=np.int64)


def write_series(path, series):
    """Write a count series as single-column CSV with header ``count``."""
    arr = np.asarray(series)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["count"])
        for value in arr:
            writer.writerow([int(value)])
