"""Simulation of generalized INAR(p) count series.

The process follows the thinning recursion

    Z_t = sum_{i=1..p} thin(counting[i], Z_{t-i}) + eps_t,

where ``thin(spec, k)`` is the sum of ``k`` independent draws from the lag's
counting-sequence distribution and ``eps_t`` is an i.i.d. innovation. The
recursion is started from ``p`` pre-sample values drawn from the innovation
distribution and a burn-in stretch (default 1000 steps) is discarded, so the
returned stretch is effectively stationary.

Each thinning sum is drawn by inverse transform: one uniform maps to a count
through the CDF row of ``thin(spec, k)``, tabulated from ``spec.sum_pmf(k)``
once per process and shared by all paths. Each row carries a guide table
(the indexed search of Chen & Asau, 1974; Devroye, 1986, III.2.4): 256
equal buckets of [0, 1), each holding the count every uniform in it maps to,
or -1 when a CDF entry splits the bucket. A draw is one index into the
guide, by the uniform's bucket (one byte per uniform), and only a split
bucket reads the uniform itself and falls back to binary search in the row,
so the counts are those of ``bisect_right`` bit for bit. Counts whose row
would be long (mean + 10 sd above 64 entries), whose law cannot be
tabulated, or that would push the rows a path uses past one entry per step
are drawn with ``spec.sample_sum(k, rng)`` instead. Both routes draw the
same exact law.

Reproducibility: ``simulate`` is a pure function of (model, config); the
seed drives a dedicated PCG64 stream, so identical inputs give bitwise
identical series. Callers that manage their own substreams (the Monte Carlo
harness) can use ``sample_path`` with an explicit generator.
"""

import csv
import functools
import io
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .distributions import CountDistribution
from .errors import InputError, require_int

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
# Buckets per guide: a power of two, so floor(u * _GUIDE) is exact, and 256,
# so every bucket index fits a byte and a path's indexes are one bytes object.
_GUIDE = 256
_NO_GUIDE = (-1,) * _GUIDE  # the guide of every count drawn with sample_sum
_NO_ROW = None, _NO_GUIDE  # (cdf, guide) of every count drawn with sample_sum
# Rows kept by _table_row, and counts kept by _spec_rows for each of its
# _SPECS latest specs.
_ROW_CACHE = 1024
_SPECS = 4
# A lag's guides are a list indexed by count below this, with () for a count
# not yet met; larger counts are looked up in the lag's dict alone, so no
# path lists millions of counts.
_FAR = 2**16
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
        require_int("series length", self.n, 1)
        require_int("burn-in", self.burn_in, 0)
        require_int("seed", self.seed, 0, 2**64)


@functools.lru_cache(maxsize=_ROW_CACHE)
def _table_row(spec, count):
    """CDF of ``thin(spec, count)`` and its guide, both tuples, or None when
    ``sum_pmf`` cannot tabulate it; built once per process and shared
    read-only by every path.

    ``guide[k]`` is ``bisect_right(cdf, u)`` for every u in bucket
    ``[k, k + 1) / _GUIDE``, or -1 when a CDF entry lies strictly inside the
    bucket, so that the draw depends on where u falls in it.
    """
    pmf = spec.sum_pmf(count)
    if pmf is None:
        return None
    # rounding can carry the sum above 1 before the last entry: clip it, and
    # keep the row's length, which the path's table budget counts
    cdf = np.minimum(np.cumsum(pmf), 1.0)
    cdf[-1] = 1.0  # the row holds all the mass, so a draw never leaves it
    edges = np.arange(_GUIDE + 1) / _GUIDE
    low = np.searchsorted(cdf, edges[:-1], side="right")  # entries <= the lower edge
    high = np.searchsorted(cdf, edges[1:], side="left")  # entries < the upper edge
    return tuple(cdf.tolist()), tuple(np.where(low == high, low, -1).tolist())


@functools.lru_cache(maxsize=_SPECS)
def _spec_rows(spec):
    """Dict ``count -> (size estimate, row)`` of ``spec``, where ``row`` is
    ``_table_row``'s, or None for a count drawn with ``sample_sum`` whatever
    the budget. Paths fill it with at most ``_ROW_CACHE`` counts and look it
    up once per lag, so a count an earlier path met costs no spec hash, row
    lookup or estimate.
    """
    return {}


def sample_path(model, n, burn_in, rng):
    """Generate ``n`` post-burn-in values of the recursion with caller's rng.

    Stream layout: the ``p`` initial innovations, the ``burn_in + n`` step
    innovations, then ``(burn_in + n) * p`` uniforms. Lag ``i + 1`` at step
    ``t`` (both counted from 0) consumes uniform ``t * p + i`` whether or not
    its count is 0. Fallback draws through ``sample_sum`` come after all of
    these, in (step, lag) order. The path may take at most ``burn_in + n``
    table entries; the rows themselves are shared by every path. Lags 1 and
    2 ride the step loop's ``zip``; lags 3..p follow them in an inner loop.

    A uniform ``u`` maps to a count by one index into its row's guide,
    ``guide[floor(u * _GUIDE)]``, the bucket being one byte of a bytes
    object made for the whole path. A -1 there (a CDF entry splits that
    bucket) reads ``u`` itself, ``float(uniforms[t * p + i])`` (through a
    view of lag ``i + 1``'s uniforms), and sends it to ``bisect_right`` on
    the CDF, so every count is the one ``bisect_right`` alone would give. A
    count drawn with ``sample_sum`` has the all-(-1) guide and no CDF, so
    each lag's hot path tests one sign. Each lag lists its guides by count,
    ``()`` for a count not yet met, so a first sight is the ``IndexError``
    of that index.
    """
    require_int("series length", n, 1)
    require_int("burn-in", burn_in, 0)
    p = model.order
    steps = burn_in + n
    if steps * p > _INT64_MAX:
        raise InputError(f"{steps:.6g} steps of {p} lags exceed numpy's largest array")
    path = model.innovation.sample_array(p, rng).tolist()
    eps = model.innovation.sample_array(steps, rng).tolist()
    uniforms = rng.random(steps * p)
    buckets = (uniforms * _GUIDE).astype(np.uint8).tobytes()  # exact: _GUIDE is 256 and u < 1
    budget = steps

    def first_sight(spec, rows, guides, met, count):
        # A lag takes the row of a new count, charged to the budget, when its
        # mean + 10 sd length estimate fits both _ROW_LIMIT and the budget;
        # else the count gets no CDF and the all-(-1) guide, and sample_sum.
        # ``rows`` (the spec's _spec_rows) keeps the estimate and the row of
        # counts earlier paths met; the budget is this path's own.
        nonlocal budget
        if count >= _FAR and count in met:  # met before, though not listed
            return met[count][1]
        entry = rows.get(count)
        if entry is None:
            size = count * spec.mean + 10.0 * math.sqrt(count * spec.variance) + 1.0
            if size > _ROW_LIMIT or size <= budget:  # the same decision for any path
                entry = size, _table_row(spec, count) if size <= _ROW_LIMIT else None
                if len(rows) < _ROW_CACHE:
                    rows[count] = entry
            else:
                entry = size, None  # refused for this path's budget alone
        size, row = entry
        if row is None or size > budget:
            row = _NO_ROW
        else:
            budget -= len(row[0])
        met[count] = row
        if count < _FAR:
            if count >= len(guides):
                guides.extend([()] * (count + 1 - len(guides)))
            guides[count] = row[1]
        return row[1]

    # per lag: its spec, _spec_rows, guides by count and the (cdf, guide) of every count met
    spec1, rows1, guides1, met1, x = model.counting[0], _spec_rows(model.counting[0]), [], {}, path[-1]
    if p == 1:
        for z, k in zip(eps, buckets):
            if x:
                try:
                    g = guides1[x][k]
                except IndexError:
                    g = first_sight(spec1, rows1, guides1, met1, x)[k]
                if g < 0:
                    cdf = met1[x][0]
                    g = spec1.sample_sum(x, rng) if cdf is None else bisect_right(cdf, float(uniforms[len(path) - 1]))
                z += g
            path.append(z)
            x = z
        return np.array(path[1 + burn_in :], dtype=np.int64)
    spec2, rows2, guides2, met2, x2 = model.counting[1], _spec_rows(model.counting[1]), [], {}, path[-2]
    us1, us2 = uniforms[::p], uniforms[1::p]  # views: lag i + 1's uniform at step t is usi[t]
    rest = [
        (lag, spec, _spec_rows(spec), [], {}, buckets[lag - 1 :: p], uniforms[lag - 1 :: p])
        for lag, spec in enumerate(model.counting[2:], 3)
    ]
    for z, k, k2 in zip(eps, buckets[::p], buckets[1::p]):
        if x:
            try:
                g = guides1[x][k]
            except IndexError:
                g = first_sight(spec1, rows1, guides1, met1, x)[k]
            if g < 0:
                cdf = met1[x][0]
                g = spec1.sample_sum(x, rng) if cdf is None else bisect_right(cdf, float(us1[len(path) - p]))
            z += g
        if x2:
            try:
                g = guides2[x2][k2]
            except IndexError:
                g = first_sight(spec2, rows2, guides2, met2, x2)[k2]
            if g < 0:
                cdf = met2[x2][0]
                g = spec2.sample_sum(x2, rng) if cdf is None else bisect_right(cdf, float(us2[len(path) - p]))
            z += g
        for lag, spec, rows, guides, met, ks, us in rest:
            count = path[-lag]
            if count:
                t = len(path) - p
                try:
                    g = guides[count][ks[t]]
                except IndexError:
                    g = first_sight(spec, rows, guides, met, count)[ks[t]]
                if g < 0:
                    cdf = met[count][0]
                    g = spec.sample_sum(count, rng) if cdf is None else bisect_right(cdf, float(us[t]))
                z += g
        path.append(z)
        x2, x = x, z
    return np.array(path[p + burn_in :], dtype=np.int64)


def simulate(model, config):
    """Simulate a strictly stationary GINAR(p) path.

    Deterministic: identical ``(model, config)`` inputs give identical
    output. Requires ``config.n >= p + 2``; fitting the path needs
    ``n >= 2p + 2`` (``fit_cls`` refuses a shorter one).
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
    or above-int64 value; and on empty files. A file of ASCII counts of at
    most 18 digits and CR/LF line ends (what ``write_series`` writes) is
    parsed in one ``np.fromstring`` step, any other by ``csv.reader`` line
    by line; accepted files, values and error messages are the csv route's.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.removeprefix(b"\xef\xbb\xbf")
    body = body[5:] if body[:6] in (b"count\r", b"count\n") else body
    if not body.translate(None, b"0123456789\r\n"):
        # digit run lengths: the gaps between line ends (the bytes below b"0"), one added at each side
        runs = np.diff(np.flatnonzero(np.frombuffer(b"\n" + body + b"\n", np.uint8) < 48)) - 1
        count = np.count_nonzero(runs)
        if count and runs.max() <= 18:  # so no int64 overflow
            values = np.fromstring(body, dtype=np.int64, sep=" ")
            if values.size == count:
                return values
    return _read_series_csv(path, data)


def _read_series_csv(path, data):
    """``read_series`` on the file's bytes ``data`` through ``csv.reader``, one line at a time."""
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
    """Write a count series as single-column CSV with header ``count``, one write of the bytes ``csv.writer`` would
    give (CRLF line ends), formatted in numpy one digit position at a time. A series ``read_series`` would refuse
    (empty, not 1-D, or a value not a count, named by index; whole floats pass) raises ``InputError`` before opening."""
    values = np.asarray(series)
    if values.ndim != 1 or values.size == 0:
        raise InputError(f"{path}: expected a nonempty one-dimensional series, got shape {values.shape}")
    if not (values.dtype.kind in "iu" and 0 <= values.min() <= values.max() <= _INT64_MAX):
        counts = [int(v) if isinstance(v, float) and v.is_integer() else v for v in values.tolist()]
        for index, value in enumerate(counts):
            if type(value) is not int or not 0 <= value <= _INT64_MAX:
                raise InputError(f"{path}: value {value!r} at index {index} is not a count in 0..2**63 - 1")
        values = np.array(counts, dtype=np.uint64)
    # column j of ``lines``: values[j] zero-padded to the widest, CR, LF; ``keep`` drops the padding
    q = values.astype(np.uint64)
    width = len(str(q.max()))
    lines = np.empty((width + 2, q.size), dtype=np.uint8)
    keep = np.ones(lines.shape, dtype=bool)
    for digit in reversed(range(width)):
        keep[digit] = q > 0
        r = q // 10  # a scalar divisor takes numpy's fast integer division
        lines[digit] = q - r * 10 + 48
        q = r
    keep[width - 1] = True
    lines[-2:] = ((13,), (10,))
    with open(path, "wb") as fh:
        fh.write(b"count\r\n" + lines.T[keep.T].tobytes())
