import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from ginar.cls import build_regressors
from ginar.errors import SingularMatrixError
from ginar.numerics import chi_square_quantile, chi_square_survival, eigh_batch, invert


def gauss_jordan_oracle(m):
    """Gauss-Jordan elimination with partial pivoting, an independent
    reference inverse: the inverse, or None if a pivot is at or below 1e-12
    times the largest absolute entry."""
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    threshold = 1e-12 * np.max(np.abs(a))
    inv = np.eye(n)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= threshold:
            return None
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


def symmetric_stack(rng, d, size=60):
    """Symmetric positive-definite, indefinite and 1e6-scaled d x d matrices."""
    mats = []
    for k in range(size):
        a = rng.normal(size=(d, d))
        kind = k % 3
        if kind == 0:
            a = a @ a.T + d * np.eye(d)
        else:
            a = a + a.T
            if kind == 2:
                a *= 1e6
        mats.append(a)
    return np.array(mats)


def singular_stack(rng, d):
    """Rank-deficient, zero and constant-series Gram matrices, then one
    positive-definite matrix; all but the last are singular."""
    mats = [np.zeros((d, d))]
    for rank in range(1, d):
        b = rng.normal(size=(d, rank))
        mats.append(b @ b.T)
    if d >= 2:
        for level in (1, 3, 1000):
            design = build_regressors(np.full(50, level), d - 1)[1]
            mats.append(design.T @ design / len(design))
    b = rng.normal(size=(d, d))
    mats.append(b @ b.T + np.eye(d))
    return np.array(mats)


def inverses(eigenvalues, eigenvectors):
    return (eigenvectors / eigenvalues[:, None, :]) @ np.swapaxes(eigenvectors, -1, -2)


class TestInvert:
    def test_identity(self):
        assert_allclose(invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert_allclose(invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_multiply_back(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            b = rng.normal(size=(2, 2))
            a = b @ b.T + np.eye(2)
            assert_allclose(a @ invert(a), np.eye(2), atol=1e-10)

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(55)
        for n in (2, 3, 4):
            b = rng.normal(size=(n, n))
            a = b + b.T + 2 * n * np.eye(n)
            assert_allclose(invert(invert(a)), a, rtol=1e-8)

    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 6):
            b = rng.normal(size=(n, n))
            a = b + b.T + 2 * n * np.eye(n)
            assert_allclose(invert(a), np.linalg.inv(a), rtol=1e-9, atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError, match="singular to working precision"):
            invert(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            invert(np.zeros((3, 3)))

    def test_near_singular_relative_threshold(self):
        # second column nearly collinear: eigenvalue ratio 2.5e-13, below 1e-12
        a = np.array([[1e6, 1e6], [1e6, 1e6 + 1e-6]])
        with pytest.raises(SingularMatrixError):
            invert(a)

    def test_refuses_a_matrix_that_is_not_symmetric(self):
        # eigh reads only the lower triangle, so this would invert [[4, 2], [2, 3]]
        with pytest.raises(ValueError, match="not symmetric"):
            invert([[4.0, 1.0], [2.0, 3.0]])

    def test_accepts_rounding_asymmetry(self):
        a = np.array([[4.0, 1.0], [1.0 + 4e-16, 3.0]])
        assert_allclose(a @ invert(a), np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(4), np.full((2, 2), np.nan)])
    def test_invalid_inputs(self, bad):
        with pytest.raises(ValueError):
            invert(bad)

    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            invert(np.eye(65))


class TestInvertBatch:
    """A stack inverted through ``eigh_batch`` as Q diag(1/lambda) Q'."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_inverses_match_gauss_jordan(self, d):
        stack = symmetric_stack(np.random.default_rng(100 + d), d)
        eigenvalues, eigenvectors, singular = eigh_batch(stack)
        assert not singular.any()
        for a, inv in zip(stack, inverses(eigenvalues, eigenvectors)):
            expected = gauss_jordan_oracle(a)
            assert np.abs(inv - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_singular_flags_do_not_depend_on_scale(self, d):
        stack = singular_stack(np.random.default_rng(200 + d), d)
        expected = [True] * (len(stack) - 1) + [False]
        for scale in (1.0, 1e100, 1e-100):
            assert eigh_batch(stack * scale)[2].tolist() == expected

    def test_rows_do_not_depend_on_the_stack(self):
        # each row's eigenpairs, flag and inverse are bitwise its matrix's alone
        for d in (1, 2, 3, 4, 8):
            rng = np.random.default_rng(300 + d)
            stack = np.concatenate((symmetric_stack(rng, d, size=30), singular_stack(rng, d)))
            stacked = eigh_batch(stack)
            for k, a in enumerate(stack):
                alone = eigh_batch(stack[k : k + 1])
                for whole, row in zip(stacked, alone):
                    assert np.array_equal(whole[k : k + 1], row)
                if not stacked[2][k]:
                    assert np.array_equal(invert(a), inverses(*stacked[:2])[k])

    def test_singular_rows_are_flagged_not_raised(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 2)), np.diag([2.0, 4.0])])
        eigenvalues, eigenvectors, singular = eigh_batch(stack)
        assert singular.tolist() == [False, True, True, False]
        assert np.all(eigenvalues[singular] == 1.0)
        inv = inverses(eigenvalues, eigenvectors)
        assert_allclose(inv[1:3], np.stack([np.eye(2)] * 2), atol=1e-15)
        assert_allclose(inv[3], np.diag([0.5, 0.25]))

    def test_invert_is_the_stack_of_one(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(invert(a), inverses(*eigh_batch(a[None])[:2])[0])

    @pytest.mark.parametrize(
        "bad", [np.eye(2), np.ones((2, 2, 3)), np.full((1, 2, 2), np.inf), np.ones((1, 65, 65))]
    )
    def test_invalid_stacks(self, bad):
        with pytest.raises(ValueError):
            eigh_batch(bad)


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
