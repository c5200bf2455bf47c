"""Property tests of the paper's per-step invariants over random systems.

Systems are drawn with SPD stiffness K = AAᵀ + sI, PSD damping C = BBᵀ,
n ≤ 6 degrees of freedom and τ ∈ [1e-3, 1]. The LU kernel's one-matrix
path is checked against its stacked path on random square systems.
Runs are derandomized, so every run of the suite checks the same
examples.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import damped_midpoint as dm

STEPS = 12

property_settings = settings(derandomize=True, database=None, max_examples=60,
                             deadline=None)

# Found by these tests. Scalar case: at step 3, K + K̃ = -4/τ² exactly, so
# the substituting factor is singular. Coupled case: at step 1, K + K̃
# misses -4/τ² by round-off, so ‖F‖² is about 4e25.
SINGULAR_SUBSTITUTE = (dm.make_system([[2.0]], [[1.0]]),
                       dm.PhaseState(0.0, [0.0], [1.0]), 1.0)
NEAR_SINGULAR_SUBSTITUTE = (dm.make_system(np.eye(2), [[2.0, 2.0], [2.0, 2.0]]),
                            dm.PhaseState(0.0, [1e-13, 1e-13], [0.0, 1.0]), 1.0)


@st.composite
def damped_runs(draw):
    """(system, initial state, τ) with SPD K, PSD C and n ≤ 6."""
    n = draw(st.integers(1, 6))

    def matrix(bound):
        return draw(hnp.arrays(float, (n, n), elements=st.floats(-bound, bound)))

    a, b = matrix(2.0), matrix(1.0)
    shift = draw(st.floats(1e-3, 10.0))
    sys_ = dm.make_system(a @ a.T + shift * np.eye(n), b @ b.T)
    vector = hnp.arrays(float, (n,), elements=st.floats(-1.0, 1.0))
    z0 = dm.PhaseState(0.0, draw(vector), draw(vector))
    return sys_, z0, draw(st.floats(1e-3, 1.0))


def api_step(sys_, state, tau, method):
    """One step through the single-step API: (next state, its K̃)."""
    if method == "midpoint_indirect":
        state, info = dm.midpoint_indirect_step(sys_, state, tau)
        return state, info.ktilde
    step = dm.midpoint_direct_step if method == "midpoint_direct" else dm.rk4_step
    following = step(sys_, state, tau)
    return following, dm.equivalent_stiffness(sys_, state.q, following.q, tau)


def integrate_or_none(sys_, z0, tau, method):
    """The trajectory, or None when integration aborts. An abort must be
    the single-step API meeting a singular factor at the same step: the
    substituting system can be exactly singular, when K + K̃ has the
    eigenvalue -4/τ²."""
    try:
        return dm.integrate(sys_, z0, tau, STEPS, method)
    except dm.IntegrationError as err:
        failing = err.step_index
    state = z0
    for k in range(1, failing + 1):
        try:
            state, ks = api_step(sys_, state, tau, method)
            if ks.all_valid:
                dm.transition_matrices(sys_, ks, tau)
        except dm.SingularMatrixError:
            assert k == failing
            return None
    raise AssertionError(f"integrate aborted at step {failing}; the step API did not")


@property_settings
@given(damped_runs())
@example(SINGULAR_SUBSTITUTE)
def test_energy_identity(run):
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, "midpoint_direct")
    if tr is not None:
        rep = dm.energy_report(tr)
        assert rep.max_energy_residual <= 1e-13 * max(1.0, rep.initial_energy)


@property_settings
@given(damped_runs(), st.sampled_from(dm.METHODS))
@example(SINGULAR_SUBSTITUTE, "midpoint_indirect")
@example(NEAR_SINGULAR_SUBSTITUTE, "midpoint_direct")
def test_arrays_match_single_step_api(run, method):
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, method)
    if tr is None:
        return
    state = z0
    for k in range(STEPS):
        state, ks = api_step(sys_, state, tau, method)
        assert np.array_equal(tr.q[k + 1], state.q)
        assert np.array_equal(tr.p[k + 1], state.p)
        assert np.array_equal(tr.ktilde[k], ks.diag)
        assert np.array_equal(tr.valid[k], ks.valid)
        if ks.all_valid:
            assert tr.defect_indirect[k] == dm.transition_matrices(sys_, ks, tau).defect_indirect
        else:
            assert np.isnan(tr.defect_indirect[k])


@property_settings
@given(damped_runs())
@example(SINGULAR_SUBSTITUTE)
@example(NEAR_SINGULAR_SUBSTITUTE)
def test_verdict_split(run):
    sys_, z0, tau = run
    tr = integrate_or_none(sys_, z0, tau, "midpoint_direct")
    if tr is None:
        return
    damping = tau * np.linalg.norm(sys_.C)
    # The direct defect is at least 0.3·τ‖C‖_F on sampled systems; below
    # 1e-8 it can fall under the tolerance, so only the extremes are split.
    if damping >= 1e-8:
        assert tr.defect_direct > dm.SYMPLECTIC_TOL
    elif damping == 0.0:
        assert tr.defect_direct <= dm.SYMPLECTIC_TOL
    # Round-off in F = M⁻¹N grows with ‖F‖², which is huge where K + K̃
    # comes near the eigenvalue -4/τ²; the defect is judged relative to it.
    for k in np.flatnonzero(~tr.singular):
        ks = dm.EquivalentStiffness(diag=tr.ktilde[k], valid=tr.valid[k])
        scale = max(1.0, np.linalg.norm(dm.transition_matrices(sys_, ks, tau).indirect) ** 2)
        assert tr.defect_indirect[k] <= dm.SYMPLECTIC_TOL * scale


# Exact zeros of both signs make singular matrices and signed-zero
# products common; small integers make exact cancellation common.
lu_entries = st.one_of(st.just(0.0), st.just(-0.0), st.integers(-4, 4).map(float),
                       st.floats(-1e3, 1e3))


@st.composite
def systems(draw):
    """(A, b) with A one m×m matrix, m ≤ 12."""
    m = draw(st.integers(1, 12))
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
