"""Property tests for the text parsers: only ``InputError`` escapes, and
everything they accept has finite parameters.

Free text rarely hits a valid family with an extreme number, so the
strategies combine valid family and key names with numeric tokens that
include the IEEE edge cases (``inf``, ``nan``, overflowing and subnormal
literals).
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ginar.dispersion_test import parse_null
from ginar.distributions import parse_distribution, parse_kappa
from ginar.errors import InputError
from ginar.montecarlo import parse_grid_config

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
