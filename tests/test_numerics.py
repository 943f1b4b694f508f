import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from ginar.errors import SingularMatrixError
from ginar.numerics import PIVOT_RTOL, chi_square_quantile, chi_square_survival, invert, invert_batch


def gauss_jordan_oracle(m):
    """The one-matrix Gauss-Jordan sweep that ``invert_batch`` stacks: the
    inverse, or the index of the first pivot below the relative threshold."""
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    threshold = PIVOT_RTOL * np.max(np.abs(a))
    inv = np.eye(n)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= threshold:
            return col
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        a[col] /= pivot
        inv[col] /= pivot
        for row in range(n):
            if row != col and a[row, col] != 0.0:
                factor = a[row, col]
                a[row] -= factor * a[col]
                inv[row] -= factor * inv[col]
    return inv


def oracle_stack(rng, d, size=60):
    """Random, 1e6-scaled, rank-deficient, sparse and small-integer d x d
    matrices; the small-integer ones tie in pivot magnitude, where the first
    largest must win."""
    mats = []
    for k in range(size):
        a = rng.normal(size=(d, d))
        kind = k % 5
        if kind == 1:
            a *= 1e6
        elif kind == 2 and d > 1:
            rank = int(rng.integers(1, d))
            a = rng.normal(size=(d, rank)) @ rng.normal(size=(rank, d))
        elif kind == 3:
            a[rng.random(size=(d, d)) < 0.4] = 0.0  # zero factors and -0.0 entries
            a[rng.random(size=(d, d)) < 0.1] = -0.0
        elif kind == 4:
            a = rng.integers(-2, 3, size=(d, d)).astype(np.float64)
        mats.append(a)
    return np.array(mats)


class TestInvert:
    def test_identity(self):
        assert_allclose(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_multiply_back(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
            assert_allclose(a @ invert(a), np.eye(2), atol=1e-10)

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(55)
        for n in (2, 3, 4):
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            assert_allclose(invert(invert(a)), a, rtol=1e-8)

    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 6):
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            assert_allclose(invert(a), np.linalg.inv(a), rtol=1e-9, atol=1e-12)

    def test_singular_names_pivot(self):
        with pytest.raises(SingularMatrixError) as excinfo:
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert excinfo.value.pivot_index == 1
        assert "pivot 1" in str(excinfo.value)

    def test_zero_matrix_singular_at_first_pivot(self):
        with pytest.raises(SingularMatrixError) as excinfo:
            invert(np.zeros((3, 3)))
        assert excinfo.value.pivot_index == 0

    def test_near_singular_relative_threshold(self):
        # second column nearly collinear: pivot ratio below 1e-12 of scale
        a = np.array([[1e6, 1e6], [1.0, 1.0 + 1e-10]])
        with pytest.raises(SingularMatrixError):
            invert(a)

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(4), np.full((2, 2), np.nan)])
    def test_invalid_inputs(self, bad):
        with pytest.raises(ValueError):
            invert(bad)

    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            invert(np.eye(65))


class TestInvertBatch:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_bitwise_equal_to_one_matrix_sweep(self, d):
        # same inverse bits (signs of zeros included) and same first bad pivot
        stack = oracle_stack(np.random.default_rng(100 + d), d)
        inverses, pivots = invert_batch(stack)
        singular = 0
        for a, inv, pivot in zip(stack, inverses, pivots):
            expected = gauss_jordan_oracle(a)
            if isinstance(expected, int):
                singular += 1
                assert pivot == expected
            else:
                assert pivot == -1
                assert np.array_equal(inv.view(np.int64), expected.view(np.int64))
        assert d == 1 or singular > 0

    def test_rows_do_not_depend_on_the_stack(self):
        stack = oracle_stack(np.random.default_rng(7), 3, size=40)
        inverses, pivots = invert_batch(stack)
        for k in (0, 13, 39):
            alone, pivot = invert_batch(stack[k : k + 1])
            assert pivot[0] == pivots[k]
            assert np.array_equal(alone[0].view(np.int64), inverses[k].view(np.int64))

    def test_singular_rows_are_flagged_not_raised(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2)), np.diag([2.0, 4.0])])
        inverses, pivots = invert_batch(stack)
        assert pivots.tolist() == [-1, 1, 0, -1]
        assert np.all(np.isfinite(inverses))
        assert_allclose(inverses[3], np.diag([0.5, 0.25]))

    def test_invert_is_the_stack_of_one(self):
        a = np.array([[4.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(invert(a), invert_batch(a[None])[0][0])

    @pytest.mark.parametrize(
        "bad", [np.eye(2), np.ones((2, 2, 3)), np.full((1, 2, 2), np.inf), np.ones((1, 65, 65))]
    )
    def test_invalid_stacks(self, bad):
        with pytest.raises(ValueError):
            invert_batch(bad)


class TestChiSquareSurvival:
    def test_at_zero(self):
        # half of 5e-324 rounds to 0, where log(x/2) is undefined
        for df in (1, 2, 3, 4, 5):
            for x in (0.0, 5e-324):
                assert chi_square_survival(x, df) == 1.0

    def test_df2_is_exponential_tail(self):
        # chi-square with 2 dof is Exp(1/2): survival = exp(-x/2)
        for x in np.linspace(0.0, 40.0, 401):
            assert abs(chi_square_survival(x, 2) - math.exp(-x / 2.0)) < 1e-10

    def test_paper_critical_value(self):
        assert abs(chi_square_survival(5.991, 2) - 0.05) < 1e-4

    def test_monotone_nonincreasing(self):
        for df in (1, 2, 3):
            grid = np.linspace(0.0, 50.0, 1000)
            values = [chi_square_survival(x, df) for x in grid]
            assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))

    def test_large_x_tends_to_zero(self):
        assert chi_square_survival(500.0, 1) < 1e-100

    def test_against_scipy(self):
        for df in (1, 2, 3, 5, 10):
            for x in np.linspace(0.01, 60.0, 223):
                assert abs(chi_square_survival(x, df) - chi2.sf(x, df)) < 1e-10

    def test_rejects_bad_inputs(self):
        for x in (-1.0, -5e-324, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                chi_square_survival(x, 2)
        for df in (0, -1, 1.5):
            with pytest.raises(ValueError, match="degrees of freedom"):
                chi_square_survival(1.0, df)

    def test_df2_is_exactly_exp(self):
        for x in np.linspace(0.0, 200.0, 2001):
            assert chi_square_survival(x, 2) == math.exp(-x / 2.0)

    def test_never_exceeds_one(self):
        for df in range(1, 21):
            for x in np.geomspace(1e-320, 1e-3, 400):
                assert 0.0 < chi_square_survival(x, df) <= 1.0

    def test_against_scipy_wide_range(self):
        xs = np.concatenate([np.geomspace(1e-6, 200.0, 400), [250.0, 700.0]])
        for df in (1, 2, 3, 4, 5, 6, 7, 10, 20, 64):
            for x in xs:
                assert abs(chi_square_survival(x, df) - chi2.sf(x, df)) < 1e-14


class TestChiSquareQuantile:
    def test_df2_analytic(self):
        # survival for df=2 is exp(-x/2), so the 95% point is -2*ln(0.05)
        assert abs(chi_square_quantile(0.95, 2) - (-2.0 * math.log(0.05))) < 1e-8
        assert abs(chi_square_quantile(0.95, 2) - 5.9915) < 1e-4

    @pytest.mark.parametrize("df", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_round_trip(self, df, q):
        x = chi_square_quantile(q, df)
        assert abs(chi_square_survival(x, df) - (1.0 - q)) < 1e-8

    def test_small_prob_tends_to_zero(self):
        assert chi_square_quantile(1e-12, 3) < 1e-3

    def test_against_scipy(self):
        for df in (1, 2, 3):
            for q in (0.1, 0.5, 0.9, 0.95, 0.99):
                assert abs(chi_square_quantile(q, df) - chi2.ppf(q, df)) < 1e-7

    def test_rejects_bad_prob(self):
        for prob in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                chi_square_quantile(prob, 2)
