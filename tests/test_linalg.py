"""Dense LU factor and solve kernels."""

import itertools

import numpy as np
import pytest

import damped_midpoint as dm
from damped_midpoint import SingularMatrixError, integrators, linalg, lu_factor, lu_solve, \
    lu_solver, solve
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


@pytest.mark.parametrize("shape, perm", [((3, 4), (3,)), ((3, 2), (3,)), ((3,), (3,)),
                                         ((3, 3), (4,)), ((3, 3), (2,)), ((2, 3, 3), (2, 2)),
                                         ((2, 3, 3), (3,)), ((2, 3, 2), (2, 3))])
@pytest.mark.parametrize("columns", [(), (3,)])
def test_malformed_factorization_rejected(shape, perm, columns):
    """A factorization whose lu is not (m, m) for its m pivots, or a stack
    of them, is refused for a vector, a matrix and a stack of either. A
    matrix or a stack used to reach the row loop, and fail there with
    ``IndexError``."""
    b = np.ones(shape[:max(len(shape) - 1, 1)] + columns)
    with pytest.raises(DimensionError, match="expected one factorization"):
        lu_solve((np.zeros(shape), np.zeros(perm, dtype=int)), b)


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
    with pytest.raises(DimensionError):
        lu_solver(factorization)


@pytest.mark.parametrize("m", [1, 2, 3, 12])
def test_prepared_solve_checks_its_right_hand_side(m):
    """Without a left factor, b is any array_like of shape (m,): a list
    solves as its float array does, and a vector of another length, which
    the row loops used to cut to its first m entries, is rejected."""
    rng = np.random.default_rng(m)
    solve = lu_solver(lu_factor(rng.standard_normal((m, m)) + m * np.eye(m)))
    b = rng.integers(-5, 6, m).tolist()
    assert solve(b).tobytes() == solve(np.array(b, dtype=float)).tobytes()
    for shape in ((m + 1,), (m, 1), ()):
        with pytest.raises(DimensionError):
            solve(np.ones(shape))


@pytest.mark.parametrize("m, shape", [(3, (4, 3)), (2, (3, 2)), (2, (2, 3)), (12, (12,)),
                                      (1, (1, 1, 1))])
def test_prepared_solve_checks_its_left_factor(m, shape):
    """A left factor N that is not an (m, m) array is refused when the
    solve is prepared. At m = 3 a (4, 3) N used to give a 3-vector from
    rows of a 4-row product; at m = 2 a (3, 2) N with a length-3 ``out``
    a wrong vector."""
    rng = np.random.default_rng(m)
    factorization = lu_factor(rng.standard_normal((m, m)) + m * np.eye(m))
    for left in (np.ones(shape), np.ones((m, m)).tolist()):
        with pytest.raises(DimensionError, match="left factor"):
            lu_solver(factorization, left)


def test_empty_matrix_solves_to_empty():
    lu, perm = lu_factor(np.zeros((0, 0)))
    assert lu.shape == (0, 0) and perm.shape == (0,)
    assert solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
    assert solve(np.zeros((0, 0)), np.zeros((0, 3))).shape == (0, 3)
    lus, perms = lu_factor(np.zeros((2, 0, 0)))
    assert lus.shape == (2, 0, 0) and perms.shape == (2, 0)


@pytest.mark.parametrize("a", [
    # A NaN entry makes the threshold NaN, so the zero pivot passes the
    # test; Python floats raise ZeroDivisionError where numpy divides.
    [[0.0, 0.0], [0.0, np.nan]],
    # The first NaN of a column is its pivot, as argmax picks it.
    [[1.0, 2.0, 3.0], [np.nan, 1.0, 1.0], [5.0, 1.0, 1.0]],
])
def test_nan_entries_factor_as_the_stack(a):
    a = np.array(a)
    given = a.tobytes()
    lu, perm = lu_factor(a)
    stacked = lu_factor(a[None])
    assert np.array_equal(lu, stacked[0][0], equal_nan=True)
    assert perm.tobytes() == stacked[1][0].tobytes()
    assert a.tobytes() == given   # the numpy rerun works on a copy


def test_zero_pivot_under_nan_threshold_solves_to_nan():
    factorization = lu_factor(np.array([[0.0, 0.0], [0.0, np.nan]]))
    b = np.array([1.0, 2.0])
    x = lu_solve(factorization, b)
    assert x.shape == (2,) and np.isnan(x).all()
    # The prepared solver falls back to the row loop on every call, and
    # that loop writes into a given ``out``, apart from b or b itself.
    solve = lu_solver(factorization)
    for _ in range(2):
        assert solve(b).tobytes() == x.tobytes()
        out = np.zeros(2)
        assert solve(b, out) is out and out.tobytes() == x.tobytes()
        inplace = b.copy()
        assert solve(inplace, inplace) is inplace and inplace.tobytes() == x.tobytes()
    assert b.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("m", [1, 2, 7, 64, 1024])
def test_rowdot_is_bitwise_per_row(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((5, m)) * 10.0 ** rng.integers(-8, 8, (5, m))
    b = rng.standard_normal((5, m))
    stacked = rowdot(a, b)
    for i in range(5):
        assert stacked[i] == a[i] @ b[i]
        assert rowdot(a[i], b[i]) == a[i] @ b[i]


def test_scheme_matrices_factor_through_the_schur_block(monkeypatch):
    """On the benchmark's seeded 16-DOF system (``dense-16d`` at seed 0,
    80 indirect steps), the direct factor and the substituting factors
    with every |A| ≤ 1 reach the row loop as their 16×16 Schur block; the
    ones with some |A| > 1 run the full 32×32 loop. Each is bit for bit
    the stacked kernel's."""
    n, rng = 16, np.random.default_rng(0)
    a = rng.integers(-3, 4, size=(n, n))
    b = rng.integers(-1, 2, size=(n, n))
    sys_ = dm.make_system((a @ a.T + n * np.eye(n, dtype=np.int64)) / 64.0,
                          (b @ b.T) / 512.0)
    z0 = dm.PhaseState(0.0, rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n))
    tr = dm.integrate(sys_, z0, 0.2, 80, "midpoint_indirect", 1e-8)
    pairs = integrators._substituting_pairs(sys_.K, 0.2)
    matrices = [dm.scheme_factors(sys_.K, sys_.C, 0.2)[0]]
    matrices += [pairs(d)[0] for d in tr.ktilde[~tr.singular]]
    sizes = []
    row_loop = linalg._lu_rows

    def counted_row_loop(lu, threshold):
        sizes.append(len(lu))
        return row_loop(lu, threshold)
    monkeypatch.setattr(linalg, "_lu_rows", counted_row_loop)
    halves = []
    row_solver, substitute = linalg._row_solver, linalg._substitute

    def counted_row_solver(lu, perm, half=0, left=None):
        halves.append(half)
        return row_solver(lu, perm, half, left)

    def counted_substitute(lu, perm, b, half):
        halves.append(half)
        return substitute(lu, perm, b, half)
    monkeypatch.setattr(linalg, "_row_solver", counted_row_solver)
    monkeypatch.setattr(linalg, "_substitute", counted_substitute)
    # Without defects, a run's only solves are the probe, prepared once on
    # the direct factor, and each non-singular step's substituting solve.
    # Each skips the first n rows exactly when its matrix was factored
    # through the Schur block.
    again = dm.integrate(sys_, z0, 0.2, 80, "midpoint_indirect", 1e-8, defects=False)
    assert again.q.tobytes() == tr.q.tobytes() and again.p.tobytes() == tr.p.tobytes()
    assert halves == [n if np.abs(m[n:, :n]).max() <= 1.0 else 0 for m in matrices]
    rhs = np.concatenate((z0.q, z0.p))
    schur = 0
    for m in matrices:
        sizes.clear()
        lu, perm = lu_factor(m)
        qualifies = np.abs(m[n:, :n]).max() <= 1.0
        assert sizes == ([n] if qualifies else [2 * n])
        schur += qualifies
        stacked = lu_factor(m[None])
        assert lu.tobytes() == stacked[0][0].tobytes()
        assert perm.tobytes() == stacked[1][0].tobytes()
        # The solves of a Schur-factored matrix skip its first n rows:
        # one vector, a matrix and the prepared solve of the direct steps.
        # The others run every row. All give the full loops' bits.
        halves.clear()
        x, f = lu_solve((lu, perm), rhs), lu_solve((lu, perm), m)
        prepared = lu_solver((lu, perm))(rhs)
        assert halves == ([n, n, n] if qualifies else [0, 0, 0])
        assert x.tobytes() == prepared.tobytes() == row_solver(lu, perm)(rhs).tobytes()
        assert x.tobytes() == substitute(lu, perm, rhs[:, None], 0)[:, 0].tobytes()
        assert f.tobytes() == substitute(lu, perm, m, 0).tobytes()
    assert schur >= 70 and len(matrices) - schur >= 1


def test_zero_row_products_round_as_the_structured_solve_assumes():
    """The structured solve skips dots of +0.0 rows, taking them as +0.0,
    and takes a row whose one nonzero entry is a as 0.0 + a·x. For finite
    x, every product the substitution loops call gives those bits: ``@``
    at length 1, ``.dot`` above it, a (1, k) @ (k, r) matrix product and
    stacked (N, 1, k) @ (N, k, 1) and (N, 1, k) @ (N, k, 32)
    ``np.matmul``, at lengths 1 to 69, with x of either sign, signed
    zeros, subnormal products and entries near the float limits. How a
    kernel sums a dot is its own, so each CI kernel step runs this."""
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 3e300, -3e300, 5e-324, -5e-324])
    with np.errstate(over="ignore", under="ignore"):
        for k in range(1, 70):
            x = rng.standard_normal((k, k, 32)) * 10.0 ** rng.integers(-300, 300, (k, k, 32))
            chosen = rng.random(x.shape) < 0.1
            x[chosen] = rng.choice(special, np.count_nonzero(chosen))
            x[k // 2] = -np.abs(x[k // 2])   # every product with a +0.0 row is -0.0
            a = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)
            zero, one = np.zeros((k, k)), np.diag(a)
            expected = (0.0 + a[:, None] * x[np.arange(k), np.arange(k)]).tobytes()
            assert np.matmul(zero[:, None, :], x).tobytes() == np.zeros((k, 1, 32)).tobytes()
            assert np.matmul(one[:, None, :], x)[:, 0].tobytes() == expected
            vectors = np.ascontiguousarray(x[..., 0])
            assert rowdot(zero, vectors).tobytes() == np.zeros(k).tobytes()
            assert rowdot(one, vectors).tobytes() == \
                (0.0 + a * vectors[np.arange(k), np.arange(k)]).tobytes()
            for j in range(k):
                row = (zero[j].dot if k > 1 else zero[j].__matmul__)
                single = (one[j].dot if k > 1 else one[j].__matmul__)
                for column in np.ascontiguousarray(x[j].T[:4]):
                    assert row(column).tobytes() == np.float64(0.0).tobytes()
                    assert single(column).tobytes() == (0.0 + a[j] * column[j]).tobytes()
                assert (zero[j, None] @ x[j]).tobytes() == np.zeros((1, 32)).tobytes()
                assert (one[j, None] @ x[j]).tobytes() == \
                    (0.0 + a[j] * x[j, j])[None].tobytes()


def column_dominant(m, rng):
    """An (m, m) matrix with |a_kk| at least 1.01 times Σ_{i≠k} |a_ik| in
    every column, which partial pivoting factors without a row swap in
    exact arithmetic (Golub & Van Loan, *Matrix Computations*, Thm 3.4.3)."""
    a = rng.uniform(-1.0, 1.0, (m, m))
    np.fill_diagonal(a, 0.0)
    scale = rng.uniform(1.01, 2.0, m) * rng.choice([-1.0, 1.0], m)
    np.fill_diagonal(a, np.abs(a).sum(axis=0) * scale)
    return a


def factor_outcome(factor, a):
    """``factor(a)``'s bytes, or the pivot and threshold it raised with."""
    try:
        lu, perm = factor(a)
    except SingularMatrixError as exc:
        return "singular", exc.pivot, exc.threshold
    return lu.tobytes(), perm.tobytes()


def assert_factors_as_reference(a):
    """Assert ``lu_factor(a)`` is bit for bit the reference, which raises
    alike, and leaves ``a`` as it was; return the outcome."""
    given = a.tobytes()
    # The reference divides by NaN, zero and infinite pivots with warnings.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expected = factor_outcome(reference_lu_factor, a)
    assert factor_outcome(lu_factor, a) == expected
    assert a.tobytes() == given
    return expected


@pytest.mark.parametrize("m", [11, 16, 32])
def test_column_dominant_matrices_skip_the_pivot_search(m):
    """Each column's search keeps its own row."""
    a = column_dominant(m, np.random.default_rng(m))
    assert_factors_as_reference(a)
    assert lu_factor(a)[1].tolist() == list(range(m))


def test_exact_ties_keep_the_pivot_row():
    """|a_ik| = |a_kk| makes l_ik = ±1, and ``argmax`` keeps the first of
    equal maxima, so the loop keeps row k."""
    blocks = [[[2.0, 1.0], [2.0, 4.0]], [[2.0, 1.0], [-2.0, 4.0]]]
    a = np.kron(np.eye(8), blocks[0]) + np.kron(np.diag([0.0, 1.0] * 4),
                                                np.subtract(blocks[1], blocks[0]))
    assert sorted(set(np.abs(a[1::2, ::2].diagonal()))) == [2.0]
    assert_factors_as_reference(a)
    assert lu_factor(a)[1].tolist() == list(range(16))


def test_a_column_that_is_not_dominant_runs_the_pivoting_loop():
    a = column_dominant(16, np.random.default_rng(5))
    a[-1, -1] = 0.5 * np.abs(a[:-1, -1]).sum()
    assert_factors_as_reference(a)


def test_rounding_that_breaks_dominance_runs_the_pivoting_loop():
    """Columns 0 and 1 are dominant with no margin (|l_10| + |l_20| = 1 and
    |a_11| = |a_01| + |a_21| before rounding), and the rounded update
    leaves |a_21| one ulp above |a_11|: the loop swaps rows 1 and 2."""
    x, t = 0.31183145201048545, 3.7945977885489754
    a = np.eye(16)
    a[:3, :3] = [[1.0, 1.0, 0.0], [x, 1.0 + t, 0.0], [x - 1.0, t, 5.0]]
    assert (2.0 * np.abs(np.diag(a)) >= np.abs(a).sum(axis=0)).all()
    assert_factors_as_reference(a)
    assert lu_factor(a)[1][:3].tolist() == [0, 2, 1]


def test_a_small_mid_column_pivot_raises_as_the_loop():
    """Column 7 holds only a pivot far below the threshold, and the loop
    raises there with that pivot."""
    a = column_dominant(16, np.random.default_rng(7))
    a[:, 7] = a[7, :] = 0.0
    a[7, 7] = 1e-20
    assert assert_factors_as_reference(a)[:2] == ("singular", 1e-20)


def test_a_zero_mid_column_pivot_falls_back_to_the_loop():
    """A zero column raises at its pivot, 0."""
    a = column_dominant(16, np.random.default_rng(8))
    a[:, 7] = a[7, :] = 0.0
    assert assert_factors_as_reference(a)[:2] == ("singular", 0.0)


@pytest.mark.parametrize("entry, value, finite", [
    ((5, 2), np.nan, False),    # a NaN threshold: no pivot fails
    ((2, 2), np.nan, False),
    ((5, 2), np.inf, False),    # an infinite threshold: the first pivot fails
    ((5, 2), -np.inf, False),
    ((2, 2), np.inf, False),
    ((2, 2), -np.inf, False),
    ((5, 2), -0.0, True),
    ((5, 2), 5e-324, True),
    ((2, 5), -5e-324, True),
])
def test_special_entries_factor_as_the_reference(entry, value, finite):
    """``finite``: whether the matrix gets a finite factor."""
    a = column_dominant(16, np.random.default_rng(9))
    a[entry] = value
    outcome = assert_factors_as_reference(a)
    assert (outcome[0] != "singular" and np.isfinite(np.frombuffer(outcome[0])).all()) \
        == finite


@pytest.mark.parametrize("m, scheme", [(1, False), (2, False), (3, False), (4, False),
                                       (12, False), (12, True), (32, True)])
def test_prepared_solve_is_bitwise_the_reference(m, scheme):
    """The prepared solve takes one-element rows as 0.0 + a·x on floats and
    divides by float pivots; ``lu_solve`` of one vector, in the stack loop,
    gives the same bits.
    Right-hand sides of signed zeros make every product ±0, so a
    one-element product of -0.0 that ``@`` turns into +0.0 shows in the
    result; non-finite ones reach the fallback of the structured solve
    (``scheme``: a scheme factor, Schur-factored). Given an ``out``,
    apart from b or b itself, the prepared solve writes the same bits
    there and returns it. With a left factor N (the scheme's N, else a
    random one), ``lu_solver(f, N)(z, out)`` writes ``solve(N.dot(z))``'s
    bits, and z is never written; at m = 2 also for a factor with a zero
    pivot, whose every solve falls back to the row loop (and is NaN)."""
    rng = np.random.default_rng(m)
    if scheme:
        h = m // 2
        k = rng.uniform(-1.0, 1.0, (h, h)) * (6 / h) ** 0.5
        a, left = integrators.scheme_factors(k @ k.T + np.eye(h), np.eye(h) / 8.0, 0.2)
        assert np.abs(a[h:, :h]).max() <= 1.0
        assert linalg._unit_rows(lu_factor(a)[0]) == h
    else:
        a = rng.uniform(-1.0, 1.0, (m, m))
        left = np.random.default_rng(100 + m).uniform(-1.0, 1.0, (m, m))
    factorization = lu_factor(a)
    solve, folded_solve = lu_solver(factorization), lu_solver(factorization, left)

    def assert_folds_left(solve, folded_solve, z):
        given = z.tobytes()
        expected = solve(left.dot(z)).tobytes()
        out = np.full(m, np.nan)
        assert folded_solve(z, out) is out and out.tobytes() == expected
        assert folded_solve(z).tobytes() == expected
        assert z.tobytes() == given
        return expected
    signs = (np.array(list(itertools.product([0.0, -0.0], repeat=m))) if m <= 4
             else rng.choice([0.0, -0.0], (256, m)))
    special = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0, -2.0,
                        5e-324, 1e308])
    finite = []
    for b in np.concatenate((signs, rng.choice(special, (256, m)))):
        given = b.tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            expected = reference_lu_solve(factorization, b).tobytes()
            assert solve(b).tobytes() == expected
            assert lu_solve(factorization, b).tobytes() == expected
            out = np.full(m, np.nan)
            assert solve(b, out) is out and out.tobytes() == expected
            assert b.tobytes() == given
            inplace = b.copy()
            assert solve(inplace, inplace) is inplace and inplace.tobytes() == expected
            folded = assert_folds_left(solve, folded_solve, b)
        finite.append(np.isfinite(np.frombuffer(expected)).all())
        finite.append(np.isfinite(np.frombuffer(folded)).all())
    assert not all(finite)
    if m == 2:
        zero_pivot = lu_factor(np.array([[0.0, 0.0], [0.0, np.nan]]))
        assert zero_pivot[0][0, 0] == 0.0
        solve, folded_solve = lu_solver(zero_pivot), lu_solver(zero_pivot, left)
        for z in (np.array([1.0, 2.0]), signs[1]):
            with np.errstate(invalid="ignore", divide="ignore"):
                assert np.isnan(np.frombuffer(assert_folds_left(solve, folded_solve, z))).all()
