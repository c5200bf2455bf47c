"""Dense LU factor and solve kernels."""

import numpy as np
import pytest

from damped_midpoint import SingularMatrixError, lu_factor, lu_solve, solve
from damped_midpoint.errors import DimensionError
from damped_midpoint.linalg import rowdot


def test_identity_returns_rhs():
    b = np.array([3.0, -1.5, 0.25])
    assert np.array_equal(solve(np.eye(3), b), b)


def test_diagonal_system():
    x = solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
    assert np.array_equal(x, np.array([1.0, 1.0]))


def test_recovers_known_solution_6x6():
    rng = np.random.default_rng(42)
    a = rng.uniform(-1.0, 1.0, (6, 6)) + 6.0 * np.eye(6)
    x = rng.uniform(-1.0, 1.0, 6)
    b = a @ x
    assert np.max(np.abs(solve(a, b) - x)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20])
def test_backward_error_well_conditioned(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        b = rng.uniform(-1.0, 1.0, n)
        x = solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)


def test_matrix_right_hand_side():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
    inv = solve(a, np.eye(4))
    assert np.max(np.abs(a @ inv - np.eye(4))) <= 1e-12


def test_singular_matrix_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        solve(a, np.array([1.0, 1.0]))
    assert err.value.pivot <= err.value.threshold
    assert "pivot" in str(err.value)


def test_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((3, 3)), np.ones(3))


def test_nonsquare_rejected():
    with pytest.raises(DimensionError):
        solve(np.ones((2, 3)), np.ones(2))


def test_rhs_size_mismatch_rejected():
    with pytest.raises(DimensionError):
        solve(np.eye(3), np.ones(4))


def test_pivoting_handles_zero_leading_entry():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(solve(a, np.array([2.0, 3.0])), [3.0, 2.0])


def reference_lu_factor(a, rtol=1e-13):
    """Unbatched partial-pivoting LU, row by row (the reference for stacks)."""
    lu = np.array(a, dtype=float)
    n = lu.shape[0]
    threshold = rtol * max(float(np.max(np.abs(lu))), np.finfo(float).tiny)
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[piv, k])
        if pivot <= threshold:
            raise SingularMatrixError(pivot, threshold)
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
    return lu, perm


def reference_lu_solve(factorization, b):
    lu, perm = factorization
    x = np.asarray(b, dtype=float)[perm]
    for k in range(1, len(lu)):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(len(lu) - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


@pytest.mark.parametrize("m", [2, 4, 32])
def test_stacked_lu_is_bitwise_per_matrix(m):
    rng = np.random.default_rng(m)
    a = rng.uniform(-1.0, 1.0, (7, m, m))
    vectors = rng.uniform(-1.0, 1.0, (7, m))
    matrices = rng.uniform(-1.0, 1.0, (7, m, 3))
    factorization = lu_factor(a)
    x = lu_solve(factorization, vectors)
    xm = lu_solve(factorization, matrices)
    for i in range(7):
        ref = reference_lu_factor(a[i])
        single = lu_factor(a[i])
        for lu, perm in (single, (factorization[0][i], factorization[1][i])):
            assert np.array_equal(lu, ref[0]) and np.array_equal(perm, ref[1])
        for rhs, stacked in ((vectors[i], x[i]), (matrices[i], xm[i])):
            expected = reference_lu_solve(ref, rhs)
            assert np.array_equal(stacked, expected)
            assert np.array_equal(lu_solve(single, rhs), expected)


def test_stack_reports_first_singular_matrix():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, (5, 4, 4)) + 4.0 * np.eye(4)
    a[2, 3] = a[2, 0] + a[2, 1]   # singular at the last column
    a[4, :, 0] = 0.0              # singular at the first column, later in the stack
    with pytest.raises(SingularMatrixError) as single:
        lu_factor(a[2])
    with pytest.raises(SingularMatrixError) as stacked:
        lu_factor(a)
    assert (stacked.value.index, single.value.index) == (2, 0)
    assert stacked.value.pivot == single.value.pivot
    assert stacked.value.threshold == single.value.threshold


def test_stacked_rhs_shape_mismatch_rejected():
    factorization = lu_factor(np.stack([np.eye(3)] * 2))
    with pytest.raises(DimensionError):
        lu_solve(factorization, np.ones((3, 3)))


def test_empty_matrix_solves_to_empty():
    lu, perm = lu_factor(np.zeros((0, 0)))
    assert lu.shape == (0, 0) and perm.shape == (0,)
    assert solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
    assert solve(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)
    lus, perms = lu_factor(np.zeros((2, 0, 0)))
    assert lus.shape == (2, 0, 0) and perms.shape == (2, 0)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 1024])
def test_rowdot_is_bitwise_per_row(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((5, m)) * 10.0 ** rng.integers(-8, 8, (5, m))
    b = rng.standard_normal((5, m))
    stacked = rowdot(a, b)
    for i in range(5):
        assert stacked[i] == a[i] @ b[i]
        assert rowdot(a[i], b[i]) == a[i] @ b[i]
