"""Property tests for the text parsers and the series reader: only
``InputError`` escapes, and everything they accept is well formed (finite
parameters; a 1-D int64 array of nonnegative counts).

Free text rarely hits a valid family with an extreme number, so the
strategies combine valid family and key names with numeric tokens that
include the IEEE edge cases (``inf``, ``nan``, overflowing and subnormal
literals). Series files mix raw bytes with count-like lines.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginar.dispersion_test import parse_null
from ginar.distributions import parse_distribution, parse_kappa
from ginar.errors import InputError
from ginar.montecarlo import parse_grid_config
from ginar.simulate import _read_series_csv, read_series, write_series

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)

EDGE_TOKENS = [
    "inf", "-inf", "Infinity", "nan", "-nan", "1e400", "-1e400", "5e-324", "1e-300",
    "1e300", "0", "-0", "0.0", "1", "2", "3", "-1", "0.5", "0.3", "0.999999999",
    "1.0000001", "500.7", "100", "1_000", "1e3", "", "abc", "0x10",
]

number_token = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
)

# family -> one accepted spelling of each required key
DIST_FAMILIES = {
    "bernoulli": ("p",),
    "poisson": ("lambda",),
    "negbinomial": ("r", "p"),
    "geometric": ("prob",),
    "zj": ("mu", "gamma"),
    "zjextended": ("mu", "gamma"),
    "berg": ("pi", "xi"),
}
DIST_KEYS = ["p", "prob", "rate", "lam", "lambda", "r", "successes", "mu", "gamma", "pi", "xi"]
KAPPA_FAMILIES = {"bernoulli": (), "poisson": (), "negbinomial": ("r",)}
GRID_KEYS = ["pi_values", "xi_values", "n_values", "replications", "burn_in", "level", "seed"]


def _spec(families, stray_keys):
    """``family(key=value, ...)`` with the family's own keys, sometimes plus a stray one."""

    def params(family):
        own = [st.tuples(st.just(key), number_token) for key in families[family]]
        stray = st.lists(st.tuples(st.sampled_from(stray_keys), number_token), max_size=1)
        return st.tuples(
            st.sampled_from([family, family.upper(), family.capitalize()]),
            st.tuples(*own).map(list),
            stray,
        )

    def render(parts):
        name, own, stray = parts
        body = ", ".join(f"{key}={value}" for key, value in own + stray)
        return f"{name}({body})" if body else name

    return st.sampled_from(sorted(families)).flatmap(params).map(render)


dist_text = _spec(DIST_FAMILIES, DIST_KEYS)
kappa_text = _spec(KAPPA_FAMILIES, ["r", "p"])

grid_line = st.tuples(
    st.sampled_from(GRID_KEYS),
    st.lists(number_token, min_size=1, max_size=3).map(", ".join),
).map(" = ".join)
grid_text = st.lists(grid_line, max_size=6).map("\n".join)
complete_grid_text = st.tuples(
    st.lists(number_token, min_size=1, max_size=2).map(", ".join),
    st.lists(number_token, min_size=1, max_size=2).map(", ".join),
    grid_text,
).map(lambda t: f"pi_values = {t[0]}\nn_values = {t[1]}\n{t[2]}")


def _assert_finite_fields(obj):
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, float):
            assert math.isfinite(value), (obj, field.name)


@DETERMINISTIC
@given(dist_text)
def test_parse_distribution_only_raises_input_error(text):
    try:
        dist = parse_distribution(text)
    except InputError:
        return
    _assert_finite_fields(dist)


@DETERMINISTIC
@given(kappa_text)
def test_parse_kappa_only_raises_input_error(text):
    try:
        kappa = parse_kappa(text)
    except InputError:
        return
    _assert_finite_fields(kappa)


@DETERMINISTIC
@given(st.lists(kappa_text, min_size=1, max_size=4).map(",".join), st.none() | st.integers(0, 4))
def test_parse_null_only_raises_input_error(text, p):
    try:
        null = parse_null(text, p=p)
    except InputError:
        return
    assert p is None or null.order == p
    for kappa in null.kappas:
        _assert_finite_fields(kappa)


@DETERMINISTIC
@given(st.one_of(grid_text, complete_grid_text))
def test_parse_grid_config_only_raises_input_error(text):
    try:
        grid = parse_grid_config(text)
    except InputError:
        return
    for value in grid.pi_values + grid.xi_values + (grid.level,):
        assert math.isfinite(value)
    for value in grid.n_values + (grid.replications, grid.burn_in, grid.master_seed):
        assert isinstance(value, int)


# csv's default field size limit is 131072 characters
SERIES_LINES = [
    "count", "COUNT", "\ufeffcount", "0", "1", "17", "-1", "2.5", "1e3", "1_000", " 4 ", "",
    "1,2", '"3"', '"1', "nan", "inf", "0x10", "\x00", "9223372036854775807",
    "9223372036854775808", "9" * 5000, "9" * 131_073, "\u0663", "\u00b2", "+5", "007",
    "9" * 18, "1" + "0" * 18, "count\r\n\n\r", "count7",
]
series_line = st.one_of(
    st.sampled_from(SERIES_LINES),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.text(max_size=12),
)
series_text = st.tuples(
    st.lists(series_line, max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["utf-8", "utf-8-sig"]),
).map(lambda t: t[1].join(t[0]).encode(t[2]))
# files of counts and line ends alone after an optional header (the one-step route's form), and
# near misses in the first line
count_text = st.tuples(
    st.sampled_from(["", "count", "\ufeffcount", "\ufeff", "count7", "COUNT", "\ufeff\ufeffcount"]),
    st.lists(
        st.one_of(st.integers(0, 10**19).map(str), st.sampled_from(["", "007", "9" * 18, "1" + "0" * 18])),
        max_size=8,
    ),
    st.sampled_from(["\n", "\r\n", "\r", "\n\n"]),
).map(lambda t: t[2].join([t[0], *t[1]]).encode())
series_bytes = st.one_of(
    st.binary(max_size=64),
    series_text,
    count_text,
    st.tuples(series_text, st.binary(max_size=8), series_text).map(b"".join),
)


@DETERMINISTIC
@given(series_bytes)
def test_read_series_only_raises_input_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(data)
        try:
            series = read_series(path)
        except InputError:
            return
    assert series.ndim == 1 and series.dtype == np.int64
    assert len(series) > 0 and np.all(series >= 0)


@DETERMINISTIC
@given(series_bytes)
def test_read_series_agrees_with_the_csv_loop(data):
    # both routes of read_series give the csv loop's array, bit for bit, or its InputError message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(data)
        try:
            expected = _read_series_csv(path, data)
        except InputError as exc:
            with pytest.raises(InputError) as raised:
                read_series(path)
            assert str(raised.value) == str(exc)
            return
        series = read_series(path)
    assert series.dtype == expected.dtype == np.int64
    assert series.shape == expected.shape and series.tobytes() == expected.tobytes()


INT_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]


@st.composite
def count_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    top = min(int(np.iinfo(dtype).max), 2**63 - 1)
    return np.array(draw(st.lists(st.integers(0, top), min_size=1, max_size=20)), dtype=dtype)


@st.composite
def count_series(draw):
    """Counts as an integer array, a list of ints, or whole floats (exact up to 2**53) in a list or an array."""
    counts = draw(count_arrays())
    floats = [float(min(v, 2**53)) for v in counts.tolist()]
    return draw(st.sampled_from([counts, counts.tolist(), floats, np.array(floats)]))


@DETERMINISTIC
@given(count_series())
@example(np.array([0, 9, 10, 99, 100, 10**18, 2**63 - 1], dtype=np.int64))
@example(np.array([0, 9, 10, 99, 100, 10**18, 2**63 - 1], dtype=np.uint64))
@example(np.array([7], dtype=np.uint8))
@example([0, 9, 10, 2**63 - 1])
@example([0.0, 10.0, 2.0**53])
def test_write_series_writes_each_count_as_a_crlf_line(series):
    counts = [int(v) for v in np.asarray(series).tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_series(path, series)
        assert path.read_bytes() == b"count\r\n" + b"".join(b"%d\r\n" % v for v in counts)
        assert read_series(path).tolist() == counts
