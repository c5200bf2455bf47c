"""Property tests of the paper's per-step invariants over random systems.

Systems are drawn with SPD stiffness K = AAᵀ + sI, PSD damping C = BBᵀ,
n ≤ 6 (or n ≤ 20) degrees of freedom and τ ∈ [1e-3, 1]. The LU kernel's
one-matrix path is checked against its stacked path on random square
systems and on the scheme's own factor matrices, the structured solve of
those factors against the full row loop, and the substituting-pair
builder against ``scheme_factors``.
Runs are derandomized, so every run of the suite checks the same
examples.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import damped_midpoint as dm
from damped_midpoint import integrators, linalg
from damped_midpoint.symplectic import frobenius_squared
from damped_midpoint.system import quadratic_energy
from reference_steps import reference_step

STEPS = 12

#: Steps of a run drawn from ``damped_runs(max_n=20)``: past one
#: verification chunk for n ≥ 9 (``_verify_chunk`` is 33 steps at n = 9
#: and 6 at n = 20).
WIDE_STEPS = 40

#: The per-step energy identity's tolerance, relative to max(1, E⁰).
ENERGY_IDENTITY_TOL = 1e-13

property_settings = settings(derandomize=True, database=None, max_examples=60,
                             deadline=None)

# Found by these tests. Scalar case: at step 3, K + K̃ = -4/τ² exactly, so
# the substituting factor is singular. Coupled case: at step 1, K + K̃
# misses -4/τ² by round-off, so ‖F‖² is about 4e25.
SINGULAR_SUBSTITUTE = (dm.make_system([[2.0]], [[1.0]]),
                       dm.PhaseState(0.0, [0.0], [1.0]), 1.0)
NEAR_SINGULAR_SUBSTITUTE = (dm.make_system(np.eye(2), [[2.0, 2.0], [2.0, 2.0]]),
                            dm.PhaseState(0.0, [1e-13, 1e-13], [0.0, 1.0]), 1.0)


def seeded_system(n=16, seed=0):
    """Seeded n-DOF system: SPD K and PSD C from integer Gram matrices."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(n, n))
    b = rng.integers(-1, 2, size=(n, n))
    sys_ = dm.make_system((a @ a.T + n * np.eye(n)) / 64.0, (b @ b.T) / 512.0)
    return sys_, dm.PhaseState(0.0, rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n))


@st.composite
def damped_runs(draw, max_n=6):
    """(system, initial state, τ) with SPD K, PSD C and n ≤ ``max_n``."""
    n = draw(st.integers(1, max_n))

    def matrix(bound):
        return draw(hnp.arrays(float, (n, n), elements=st.floats(-bound, bound)))

    a, b = matrix(2.0), matrix(1.0)
    shift = draw(st.floats(1e-3, 10.0))
    sys_ = dm.make_system(a @ a.T + shift * np.eye(n), b @ b.T)
    vector = hnp.arrays(float, (n,), elements=st.floats(-1.0, 1.0))
    z0 = dm.PhaseState(0.0, draw(vector), draw(vector))
    return sys_, z0, draw(st.floats(1e-3, 1.0))


def integrate_or_none(sys_, z0, tau, method, steps=STEPS):
    """The trajectory, or None when integration aborts. An abort must be
    the reference step meeting a singular factor at the same step: the
    substituting system can be exactly singular, when K + K̃ has the
    eigenvalue -4/τ²."""
    try:
        return dm.integrate(sys_, z0, tau, steps, method)
    except dm.IntegrationError as err:
        failing = err.step_index
    z = np.concatenate((z0.q, z0.p))
    for k in range(1, failing + 1):
        try:
            z, ks = reference_step(sys_, z, tau, method)
            if ks.all_valid:
                dm.transition_matrices(sys_, ks, tau)
        except dm.SingularMatrixError:
            assert k == failing
            return None
    raise AssertionError(f"integrate aborted at step {failing}; the reference step did not")


@property_settings
@given(damped_runs(max_n=20))
@example(SINGULAR_SUBSTITUTE)
def test_energy_identity(run):
    """E_{k+1} - E_k = -(Δq)ᵀC(Δq)/τ at every step to 1e-13·max(1, E⁰),
    over n = 1..20 and past one verification chunk for n ≥ 9."""
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, "midpoint_direct", WIDE_STEPS)
    if tr is not None:
        rep = dm.energy_report(tr)
        assert rep.max_energy_residual <= ENERGY_IDENTITY_TOL * max(1.0, rep.initial_energy)


@settings(property_settings, max_examples=40)
@given(damped_runs(max_n=20), st.sampled_from(("midpoint_direct", "midpoint_indirect")))
@example(SINGULAR_SUBSTITUTE, "midpoint_indirect")
@example(NEAR_SINGULAR_SUBSTITUTE, "midpoint_indirect")
@example((*seeded_system(16, seed=5), 0.2), "midpoint_indirect")
def test_hhat_ledger_is_constant(run, method):
    """The conservative ledger Ĥ_k = E_k + Σ work stays at E⁰ for both
    midpoint schemes. Ĥ telescopes the per-step energy identity, so after
    k steps it has moved by at most k residuals of 1e-13·max(1, E⁰) each.
    An indirect step carries the round-off of its own factor, about
    ε·‖F_k‖_F² (see ``test_direct_is_indirect``), so its bound is scaled by
    max(1, max_k ‖F_k‖_F²); without that scale an indirect run at n = 17
    read 2e-12 per step. Over 400 draws of this strategy and method the
    worst ratio to the bound was 0.007 under the SkylakeX and Haswell
    kernels and 0.013 under Sandybridge, all on direct runs."""
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, method, WIDE_STEPS)
    if tr is None:
        return
    rep = dm.energy_report(tr)
    scale = max(1.0, rep.initial_energy)
    if method == "midpoint_indirect":
        scale *= np.fmax.reduce(tr.norm2_indirect, initial=1.0)
    assert rep.max_hhat_deviation <= WIDE_STEPS * ENERGY_IDENTITY_TOL * scale


@settings(property_settings, max_examples=40)
@given(damped_runs(max_n=20), st.sampled_from(dm.METHODS))
def test_report_ledger_is_the_trajectory_ledger(run, method):
    """``energy_report`` reads the trajectory's ledger; E, Σ work and Ĥ
    recomputed here from the stored states are its series bit for bit, so
    the stored ledger is checked against its states and the run CSV takes
    both columns from the report alone."""
    sys_, z0, tau = run
    try:
        tr = dm.integrate(sys_, z0, tau, WIDE_STEPS, method)
    except dm.IntegrationError:
        return   # a singular substitute, or RK4 past its stability limit
    rep = dm.energy_report(tr)
    energy = quadratic_energy(sys_.K, tr.q, tr.p)
    work_cumulative = np.concatenate(([0.0], np.cumsum(
        dm.damping_work(sys_, tr.q[:-1], tr.q[1:], tr.tau))))
    assert rep.energy.tobytes() == energy.tobytes()
    assert rep.work_cumulative.tobytes() == work_cumulative.tobytes()
    assert rep.hhat.tobytes() == (energy + work_cumulative).tobytes()
    assert rep.energy[0] == rep.hhat[0] == rep.initial_energy


@property_settings
@given(damped_runs(), st.sampled_from(dm.METHODS))
@example(SINGULAR_SUBSTITUTE, "midpoint_indirect")
@example(NEAR_SINGULAR_SUBSTITUTE, "midpoint_direct")
def test_arrays_match_single_step_api(run, method):
    """``integrate`` is, bit for bit, ``reference_step`` repeated."""
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, method)
    if tr is None:
        return
    z = np.concatenate((z0.q, z0.p))
    for k in range(STEPS):
        z, ks = reference_step(sys_, z, tau, method)
        assert np.array_equal(tr.q[k + 1], z[:sys_.n])
        assert np.array_equal(tr.p[k + 1], z[sys_.n:])
        assert np.array_equal(tr.ktilde[k], ks.diag)
        assert np.array_equal(tr.valid[k], ks.valid)
        if ks.all_valid:
            pair = dm.transition_matrices(sys_, ks, tau)
            assert tr.defect_indirect[k] == pair.defect_indirect
            assert tr.norm2_indirect[k] == frobenius_squared(pair.indirect)
        else:
            assert np.isnan(tr.defect_indirect[k]) and np.isnan(tr.norm2_indirect[k])


@property_settings
@given(damped_runs(max_n=20))
@example(SINGULAR_SUBSTITUTE)
@example(NEAR_SINGULAR_SUBSTITUTE)
def test_verdict_split(run):
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, "midpoint_direct", WIDE_STEPS)
    if tr is None:
        return
    damping = tau * np.linalg.norm(sys_.C)
    direct, _, _ = dm.scaled_verdict([tr.defect_direct], [tr.norm2_direct])
    # The direct defect is at least 0.3·τ‖C‖_F on sampled systems; below
    # 1e-8 it can fall under the tolerance, so only the extremes are split.
    if damping >= 1e-8:
        assert direct == "unsymplectic"
    elif damping == 0.0:
        assert direct == "symplectic"
    # Round-off in F = M⁻¹N grows with ‖F‖², which is huge where K + K̃
    # comes near the eigenvalue -4/τ²; the verdict judges each defect
    # relative to it.
    nonsingular = ~tr.singular
    indirect, _, _ = dm.scaled_verdict(tr.defect_indirect[nonsingular],
                                       tr.norm2_indirect[nonsingular])
    assert indirect in ("symplectic", "insufficient data")


#: The direct ≡ indirect tolerance, relative to max(1, ‖F‖_F²)·max(1, |z|).
DIRECT_IS_INDIRECT_TOL = 1e-13


@settings(property_settings, max_examples=40)
@given(damped_runs(max_n=20))
@example(NEAR_SINGULAR_SUBSTITUTE)
@example((*seeded_system(16, seed=5), 0.2))
@example((*seeded_system(20, seed=6), 0.7))
def test_direct_is_indirect(run):
    """The substituting conservative system reproduces the direct step
    (the paper's central claim) over n = 1..20. The direct step's folded
    solve M⁻¹(N·z) runs on Python floats (n = 1), by the row loop and,
    in the seeded 16-DOF example, through the Schur block; most draws
    have n ≥ 9 and pass a verification chunk. Each indirect step solves
    its own factor by a backward-stable LU, an error of about ε·κ·|z|,
    and κ grows like ‖F‖_F² of that step's transition matrix, the scale
    ``scaled_verdict`` judges defects by. So one rule holds from
    well-conditioned steps to those near the singular -4/τ²:
    max |z_direct - z_indirect| ≤ 1e-13 (about 450 ε) times
    max(1, max_k ‖F_k‖_F²)·max(1, max |z|). The worst ratio to that
    bound seen over these examples was 0.019 under the SkylakeX kernel,
    0.023 under Haswell and 0.012 under Sandybridge, at n = 9."""
    sys_, z0, tau = run
    direct = integrate_or_none(sys_, z0, tau, "midpoint_direct", WIDE_STEPS)
    indirect = integrate_or_none(sys_, z0, tau, "midpoint_indirect", WIDE_STEPS)
    if direct is None or indirect is None:
        return
    z_direct, z_indirect = np.hstack((direct.q, direct.p)), np.hstack((indirect.q, indirect.p))
    scale = (np.fmax.reduce(indirect.norm2_indirect, initial=1.0)
             * max(1.0, np.abs(z_direct).max()))
    assert np.abs(z_direct - z_indirect).max() <= DIRECT_IS_INDIRECT_TOL * scale


# Exact zeros of both signs make singular matrices and signed-zero
# products common; small integers make exact cancellation common.
lu_entries = st.one_of(st.just(0.0), st.just(-0.0), st.integers(-4, 4).map(float),
                       st.floats(-1e3, 1e3))


@st.composite
def systems(draw):
    """(A, b) with A one m×m matrix, m ≤ 20: both sides of the size at
    which the one-matrix factor leaves Python floats for numpy."""
    m = draw(st.integers(1, 20))
    return (draw(hnp.arrays(float, (m, m), elements=lu_entries)),
            draw(hnp.arrays(float, (m,), elements=lu_entries)))


@property_settings
@given(systems())
def test_one_matrix_lu_is_the_stacked_kernel(system):
    a, b = system
    try:
        stacked = dm.lu_factor(a[None])
    except dm.SingularMatrixError as exc:
        with pytest.raises(dm.SingularMatrixError) as single:
            dm.lu_factor(a)
        assert (single.value.pivot, single.value.threshold, single.value.index) == \
            (exc.pivot, exc.threshold, 0)
        return
    lu, perm = dm.lu_factor(a)
    assert lu.tobytes() == stacked[0][0].tobytes()
    assert perm.tobytes() == stacked[1][0].tobytes()
    # Pivots near the threshold of a matrix of tiny entries can overflow
    # the solution; both paths then do the same arithmetic on infinities.
    with np.errstate(over="ignore", invalid="ignore"):
        x = dm.lu_solve((lu, perm), b)
        expected = dm.lu_solve(stacked, b[None])[0]
    assert x.tobytes() == expected.tobytes()


@st.composite
def scheme_matrices(draw):
    """M of the time-centered scheme, [[I, -(τ/2)I], [A, I]], from
    ``scheme_factors(K, C, τ)`` or ``_substituting_pairs(K, τ)(d)``, with
    n ≤ 20, so that both 2n and the Schur block's n fall on both sides of
    the float bound. K and C hold ±0.0 often. A scale of 10 makes |A| > 1
    almost always; the smaller scales often keep |A| ≤ 1. Some draws get
    a NaN, ±inf, -0.0 or 0.5 entry, which may break the block structure.
    Arrays come from a seed: hypothesis would
    fill most entries of a large array with one value."""
    n = draw(st.integers(1, 20))
    tau = draw(st.one_of(st.sampled_from([5e-324, 1e-310, 0.2]), st.floats(1e-3, 4.0)))
    scale = draw(st.sampled_from([0.05, 0.2, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    K, C = scale * rng.uniform(-2.0, 2.0, (2, n, n))
    for x in (K, C):
        zeros = rng.random((n, n)) < 1 / 3
        x[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
    if draw(st.booleans()):
        a = dm.scheme_factors(K, C, tau)[0]
    else:
        a = integrators._substituting_pairs(K, tau)(scale * rng.uniform(-2.0, 2.0, n))[0]
    poison = draw(st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf, -0.0, 0.5]))
    if poison is not None:
        a[tuple(rng.integers(0, 2 * n, 2))] = poison
    return a


def _scheme(K, C, tau):
    return dm.scheme_factors(K, C, tau)[0]


def _set(a, index, value):
    a[index] = value
    return a


def _negative_then_negative_zero():
    K, C = -np.eye(6), np.zeros((6, 6))
    K[0, 1] = C[0, 1] = -0.0
    return _scheme(K, C, 0.5)


@settings(property_settings, max_examples=200)
@given(scheme_matrices())
# A -0.0 in A right of a negative entry: the full loop subtracts
# (negative)·(+0.0) = -0.0 from it, which makes +0.0.
@example(_negative_then_negative_zero())
# A = -I and D = -I: the Schur block I - A·D is exactly zero.
@example(_scheme(-np.eye(6), np.zeros((6, 6)), 2.0))
# max|a| = 2e13 puts the threshold above the unit pivots.
@example(_scheme(np.zeros((6, 6)), 0.1 * np.eye(6), 4e13))
# τ = 5e-324 halves to 0.0, so D = -0.0.
@example(_scheme(np.eye(8), 0.5 * np.eye(8), 5e-324))
# A nonzero off the diagonal of either I block: not the scheme's shape.
@example(_set(_scheme(np.eye(8), 0.5 * np.eye(8), 0.2), (0, 1), 0.5))
@example(_set(_scheme(np.eye(8), 0.5 * np.eye(8), 0.2), (9, 8), 0.5))
# A -0.0 there, under D = -0.0 and negative entries in its row of A: the
# full loop's ±0 updates turn it into +0.0.
@example(_set(_scheme(np.zeros((6, 6)), _set(_set(0.5 * np.eye(6), (1, 0), -0.5), (1, 2), -0.5),
                      5e-324), (7, 6), -0.0))
# A -0.0 off the diagonal of the upper I block under D = -0.0: the full
# loop subtracts (-0.0)·(+0.0) from the -0.0 of D in its row, which makes
# +0.0. The one template of [I | 0] that the factor and the solve read
# must hold it apart from +0.0.
@example(_set(_scheme(np.eye(8), 0.5 * np.eye(8), 5e-324), (1, 0), -0.0))
def test_scheme_matrix_lu_is_the_stacked_kernel(a):
    """The one-matrix factor of a scheme matrix, through its Schur block
    where it qualifies, is bit for bit the stacked kernel's item. The
    float loop can give another sign to a NaN made of two NaNs, so a
    factor with NaNs matches up to that sign."""
    try:
        lu_s, perm_s = dm.lu_factor(a[None])
    except dm.SingularMatrixError as exc:
        with pytest.raises(dm.SingularMatrixError) as single:
            dm.lu_factor(a)
        assert (single.value.pivot, single.value.threshold, single.value.index) == \
            (exc.pivot, exc.threshold, 0)
        return
    lu, perm = dm.lu_factor(a)
    if np.isnan(lu).any():
        assert np.array_equal(lu, lu_s[0], equal_nan=True)
    else:
        assert lu.tobytes() == lu_s[0].tobytes()
    assert perm.tobytes() == perm_s[0].tobytes()


@st.composite
def vector_solves(draw):
    """(A, b) with A one m×m matrix, m ≤ 33, a third of its entries ±0.0,
    and b with ±0.0, ±inf and NaN entries. A is drawn from a seed: hypothesis
    would fill most entries of a large array with one value."""
    m = draw(st.one_of(st.sampled_from([1, 3, 32, 33]), st.integers(1, 33)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-2.0, 2.0, (m, m))
    zeros = rng.random((m, m)) < 1 / 3
    a[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
    b = draw(hnp.arrays(float, (m,), elements=st.one_of(
        lu_entries, st.sampled_from([np.inf, -np.inf, np.nan]))))
    return a, b


@property_settings
@given(vector_solves())
@example((np.array([[2.0, -0.0], [-0.0, 3.0]]), np.array([-0.0, -0.0])))
@example((np.array([[1.0, 2.0], [0.0, 3.0]]), np.array([np.inf, np.nan])))
@example((np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([-np.inf, 0.0])))
# -0.0 less a -0.0 product, in the forward and in the back substitution:
# the result's sign tells ``@`` (+0.0 product) from ``.dot`` (-0.0), and
# at m = 2 ``0.0 + a * b`` from ``a * b``.
@example((np.array([[2.0, 0.0], [1.0, 3.0]]), np.array([-0.0, -0.0])))
@example((np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 4.0]]),
          np.array([-0.0, -0.0, 1.0])))
@example((np.array([[2.0, 0.0, 0.0], [0.0, 3.0, -1.5], [0.0, 0.0, 4.0]]),
          np.array([1.0, -0.0, 0.0])))
def test_vector_solve_is_the_stacked_kernel(system):
    """The prepared one-vector solve runs on Python floats at m = 2, and through
    ``@`` (one-element rows) or ``ndarray.dot`` (longer rows) above it;
    signed zeros, infinities and NaNs on the right-hand side must come
    out as the stack's bits. m = 32 is the size of a 16-DOF system.

    The prepared solver gives those bits on every call, also after a call
    with another right-hand side, which leaves an earlier solution as it
    was; it writes neither ``b`` nor the factorization (both are
    read-only here)."""
    a, b = system
    try:
        stacked = dm.lu_factor(a[None])
    except dm.SingularMatrixError:
        return
    single = (stacked[0][0].copy(), stacked[1][0].copy())
    for array in (b, *single):
        array.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = dm.lu_solve(stacked, b[None])[0].tobytes()
        assert dm.lu_solve(single, b).tobytes() == expected
        solve = dm.lu_solver(single)
        first = solve(b)
        solve(b[::-1].copy())
        assert first.tobytes() == expected
        assert solve(b).tobytes() == expected
    assert single[0].tobytes() == stacked[0][0].tobytes()
    assert single[1].tobytes() == stacked[1][0].tobytes()


@property_settings
@given(vector_solves())
def test_matvec_dot_is_matmul(system):
    """The step kernel takes N·z with ``ndarray.dot``: for m ≥ 2 it gives
    the bits of ``@`` (they differ only for one-element products, in the
    sign of a zero)."""
    a, b = system
    if len(b) >= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            assert a.dot(b).tobytes() == (a @ b).tobytes()


@st.composite
def substituting_stiffness(draw):
    """(K, a stack of K̃ diagonals, τ) with n ≤ 6 and entries ±0.0 often;
    the diagonals also hold ±inf and NaN, as a K̃ whose quotient
    underflows does."""
    n = draw(st.integers(1, 6))
    K = draw(hnp.arrays(float, (n, n), elements=lu_entries))
    diags = draw(hnp.arrays(float, (draw(st.integers(1, 4)), n), elements=st.one_of(
        lu_entries, st.sampled_from([np.inf, -np.inf, np.nan]))))
    return K, diags, draw(st.floats(1e-3, 1.0))


@property_settings
@given(substituting_stiffness())
@example((np.array([[-0.0, -0.0], [0.0, -0.0]]), np.array([[-0.0, 0.0], [0.0, -0.0]]), 0.5))
@example((np.array([[1.0, -0.0], [-0.0, 2.0]]), np.array([[np.inf, -np.inf], [np.nan, -0.0]]),
          0.5))
def test_substituting_pairs_are_the_full_builder(case):
    K, diags, tau = case
    pairs = integrators._substituting_pairs(K, tau)
    expected = [dm.scheme_factors(K + np.diag(d), np.zeros_like(K), tau) for d in diags]
    for d, (m, nn) in zip(diags, expected):
        for one in (d, d.tolist()):
            got_m, got_n = pairs(one)
            assert got_m.tobytes() == m.tobytes() and got_n.tobytes() == nn.tobytes()
    got_m, got_n = pairs(diags)
    assert got_m.shape == (len(diags),) + expected[0][0].shape
    assert got_m.tobytes() == np.array([m for m, _ in expected]).tobytes()
    assert got_n.tobytes() == np.array([nn for _, nn in expected]).tobytes()


# Right-hand side entries: ordinary values, signed zeros, a subnormal-
# making 1e-300, 3e300 (whose solutions can overflow) and non-finite ones.
rhs_specials = np.array([0.0, -0.0, 1e-300, -1e-300, 3e300, -3e300, np.inf, -np.inf, np.nan])


@st.composite
def structured_solves(draw):
    """Three factorizations of scheme matrices from ``scheme_factors(K, C,
    τ)`` (one C, three K) or ``_substituting_pairs(K, τ)`` (three K̃),
    with n = 6..20 and |A| ≤ 1, so the first n rows of each factorization
    are [I | diag(D)]; a fourth from the first matrix with one entry
    of A set to 2, which pivots off that shape; and right-hand sides, for
    each: three vectors and a matrix of 1..5 columns. A right-hand side
    is all signed zeros, ordinary values, ordinary values with a few
    special entries, or finite entries near the float limit, whose
    solutions tend to overflow. Arrays come from a seed."""
    n = draw(st.integers(6, 20))
    tau = draw(st.floats(1e-3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    K = 0.2 * rng.uniform(-2.0, 2.0, (3, n, n))
    C = 0.2 * rng.uniform(-2.0, 2.0, (n, n))
    for x in (K, C):
        zeros = rng.random(x.shape) < 1 / 3
        x[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, 0.0, -0.0)
    if draw(st.booleans()):
        matrices = dm.scheme_factors(K, C, tau)[0]
    else:
        matrices = integrators._substituting_pairs(K[0], tau)(
            0.2 * rng.uniform(-2.0, 2.0, (3, n)))[0]
    off = matrices[0].copy()
    off[n + rng.integers(n), 0] = 2.0
    factors = [dm.lu_factor(a) for a in (*matrices, off)]
    kind = draw(st.sampled_from(["zeros", "plain", "special", "huge"]))
    shape = (4, 2 * n, 3 + draw(st.integers(1, 5)))
    if kind == "zeros":
        rhs = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    elif kind == "huge":
        rhs = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * rng.uniform(1e307, 1.7e308, shape)
    else:
        rhs = rng.uniform(-1.0, 1.0, shape)
        if kind == "special":
            chosen = rng.random(shape) < 0.05
            rhs[chosen] = rng.choice(rhs_specials, np.count_nonzero(chosen))
    return factors, rhs


@property_settings
@given(structured_solves())
def test_structured_solve_is_the_full_row_loop(case):
    """A factorization whose first n rows are [I | diag(D)] is solved
    without its known rows, bit for bit the full row loop, by the prepared
    one-vector solver (called three times, with b and the factorization
    read-only), for a matrix right-hand side, and for stacked vectors and
    matrices. The one-vector loop gives the stack loop's bits. A stack with one item off that shape runs the full loop
    for all. A solution that is not finite, also one of a finite
    right-hand side, is solved again by the full loop."""
    factors, rhs = case
    n = len(factors[0][1]) // 2
    for i, (lu, perm) in enumerate(factors):
        assert linalg._unit_rows(lu) == (n if i < 3 else 0)
        for array in (lu, perm):
            array.setflags(write=False)
    vectors, matrices = rhs[..., :3], rhs[..., 3:]
    with np.errstate(over="ignore", invalid="ignore"):
        for (lu, perm), b, m in zip(factors, vectors, matrices):
            solve = dm.lu_solver((lu, perm))
            for column in np.ascontiguousarray(b.T):
                column.setflags(write=False)
                expected = linalg._row_solver(lu, perm)(column).tobytes()
                for _ in range(3):
                    assert solve(column).tobytes() == expected
                assert dm.lu_solve((lu, perm), column).tobytes() == expected
                assert linalg._substitute(lu, perm, column[:, None], 0)[:, 0].tobytes() == \
                    expected
            assert dm.lu_solve((lu, perm), m).tobytes() == \
                linalg._substitute(lu, perm, m, 0).tobytes()
        for items in ([0, 1, 2], [0, 3, 1]):   # all on the shape; one off it
            lus = np.array([factors[i][0] for i in items])
            perms = np.array([factors[i][1] for i in items])
            assert linalg._unit_rows(lus) == (n if 3 not in items else 0)
            b = np.ascontiguousarray(vectors[items, :, 0])
            assert dm.lu_solve((lus, perms), b).tobytes() == \
                linalg._substitute(lus, perms, b[..., None], 0)[..., 0].tobytes()
            assert dm.lu_solve((lus, perms), matrices[items]).tobytes() == \
                linalg._substitute(lus, perms, matrices[items], 0).tobytes()
