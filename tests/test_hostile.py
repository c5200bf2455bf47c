"""``integrate`` and ``propagate`` bit for bit against the reference step on
hostile input.

Systems of n = 1..6 degrees of freedom, on both sides of the float bound
(2n <= 10), get entries that mix signed zeros, ordinary values and
magnitudes from 1e-300 to 1e300, with K symmetric and C arbitrary.
Among the runs are steps whose K̃ is invalid (a coordinate sum under ε),
steps where τ·(q' + q) underflows to 0, overflowing products and runs
that blow up. Each run of the indirect scheme and of RK4 must give the
reference's states and K̃ to the bit, or fail at the reference's step.
Runs are derandomized, so every run of the suite checks the same
examples.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import damped_midpoint as dm
from damped_midpoint.system import damping_work, quadratic_energy
from reference_steps import reference_step

zeros = st.sampled_from([0.0, -0.0])
ordinary = st.floats(-3.0, 3.0)
powers = st.one_of(st.builds(lambda e: 10.0 ** (25 * e), st.integers(-12, 12)),
                   st.sampled_from([1e-310, 5e-324]))
extreme = st.builds(lambda sign, power: sign * power, st.sampled_from([1.0, -1.0]), powers)
# Mild runs mostly keep ordinary entries and step size; hostile runs do not.
entries = {False: st.one_of(ordinary, ordinary, ordinary, zeros, extreme),
           True: st.one_of(ordinary, zeros, extreme)}

# Found by a search: at step 1 both 2·(C·Δq)₁ and τ·(q' + q)₁ overflow,
# so K̃₁ = -inf/inf = NaN and an entry of the substituting M is NaN. The
# float factor's pivot threshold must then be NaN, as numpy's max makes it.
NAN_THRESHOLD = ([[1.5, 0.0], [0.0, 0.3]], [[-0.06, 0.0], [0.5, -0.9]],
                 [-0.5, -3e307], [1.7, -3e306], 3.75)
# At step 1, τ·(q' + q)₁ underflows to 0 and (C·Δq)₁ = 0: the float K̃
# raises ZeroDivisionError and takes numpy's K̃, whose K̃₁ is 0/0 = NaN.
UNDERFLOW = ([[-1e-250, 1e-200], [1e-200, 1e50]], [[1e-100, -1.0], [-1e-125, 1e-300]],
             [-0.5, 1e-100], [1.0, -1e-150], 1e-275)
# The same above the float bound (2n = 12): at step 1 every τ·(q' + q)ᵢ
# underflows to 0, so K̃ falls back to numpy's ±inf and NaN.
UNDERFLOW_6 = (np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), 0.1 * np.eye(6) + 0.01,
               [1e-300, 2e-300, 3e-300, 4e-300, 5e-300, 6e-300],
               [1e-300, 0.0, 0.0, 0.0, 0.0, 0.0], 1e-100)

# The energy overflows at step 1, the indirect scheme's state at step 3:
# integrate fails at the ledger's step, propagate at the state's.
LEDGER_FIRST = ([[1.0]], [[-3.0]], [1.7e307], [0.0], 1.5)


def run_of(K, C, q, p, tau):
    """An explicit example in the drawn form, with ε = 0.3 and 3 steps."""
    return dm.make_system(K, C), dm.PhaseState(0.0, q, p), tau, 0.3, 3


@st.composite
def hostile_runs(draw):
    """(system, initial state, τ, ε, steps); C is all one entry half the time."""
    n, hostile = draw(st.integers(1, 6)), draw(st.booleans())

    def vector(size):
        return np.array(draw(st.lists(entries[hostile], min_size=size, max_size=size)))

    upper = np.zeros((n, n))
    upper[np.triu_indices(n)] = vector(n * (n + 1) // 2)
    C = vector(1) * np.ones((n, n)) if draw(st.booleans()) else vector(n * n).reshape(n, n)
    sys_ = dm.make_system(np.triu(upper) + np.triu(upper, 1).T, C)
    z0 = dm.PhaseState(0.0, vector(n), vector(n))
    tau = draw(st.one_of(powers, st.floats(1e-3, 2.0)) if hostile else st.floats(1e-3, 2.0))
    epsilon = draw(st.sampled_from([dm.DEFAULT_EPSILON, 0.3, 0.9]))
    return sys_, z0, tau, epsilon, draw(st.integers(1, 6))


def reference_run(sys_, z0, tau, method, epsilon, steps):
    """The reference's states and K̃ (lists of arrays) and the errors, as
    ``(step, message)``, that ``propagate`` and ``integrate`` must raise
    (None where they must not).

    A run fails at its first singular step or non-finite state; a singular
    direct factor fails it at step 1. ``integrate`` also fails at an
    earlier step whose substituting factor, which it verifies, is
    singular, and at the first non-finite energy ledger entry before
    either.
    """
    K, C = sys_.K, sys_.C
    try:
        dm.lu_factor(dm.scheme_factors(K, C, tau)[0])
    except dm.SingularMatrixError as exc:
        return [], [], (1, str(exc)), (1, str(exc))
    states, stiffness = [np.concatenate((z0.q, z0.p))], []
    stop = verify = None
    for k in range(1, steps + 1):
        try:
            z, ks = reference_step(sys_, states[-1], tau, method, epsilon)
        except dm.SingularMatrixError as exc:
            stop = (k, str(exc))
            break
        if not np.isfinite(z).all():
            stop = (k, "state is not finite")
            break
        if verify is None and ks.all_valid:
            try:
                dm.lu_factor(dm.scheme_factors(K + np.diag(ks.diag), np.zeros_like(C), tau)[0])
            except dm.SingularMatrixError as exc:
                verify = (k, str(exc))
        states.append(z)
        stiffness.append(ks)
    n = sys_.n
    z = np.array(states)
    hhat = (quadratic_energy(K, z[1:, :n], z[1:, n:])
            + np.cumsum(damping_work(sys_, z[:-1, :n], z[1:, :n], tau)))
    finite = np.isfinite(hhat)
    ledger = None if finite.all() else (1 + int(np.argmin(finite)), "energy ledger is not finite")
    # The ledger counts only before the step that fails the run otherwise.
    errors = [e for e in (stop, verify, ledger) if e]
    return states, stiffness, stop, min(errors, key=lambda e: (e[0], e is ledger), default=None)


def raised(call):
    """``(step, message)`` of the :class:`dm.IntegrationError` ``call``
    raises, or None and what it returns."""
    try:
        return None, call()
    except dm.IntegrationError as err:
        return (err.step_index, str(err).split(": ", 1)[1]), None


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(hostile_runs())
@example(run_of(*NAN_THRESHOLD))
@example(run_of(*UNDERFLOW))
@example(run_of(*UNDERFLOW_6))
@example(run_of(*LEDGER_FIRST))
def test_steps_match_reference_bit_for_bit(run):
    sys_, z0, tau, epsilon, steps = run
    n = sys_.n
    for method in ("midpoint_indirect", "rk4"):
        with np.errstate(all="ignore"):
            states, stiffness, stop, fail = reference_run(sys_, z0, tau, method, epsilon, steps)
            error, tr = raised(lambda: dm.integrate(sys_, z0, tau, steps, method, epsilon))
            assert error == fail, method
            if tr is not None:
                z = np.array(states)
                assert tr.q.tobytes() == z[:, :n].tobytes(), method
                assert tr.p.tobytes() == z[:, n:].tobytes(), method
                assert tr.ktilde.tobytes() == np.array([ks.diag for ks in stiffness]).tobytes()
                assert tr.valid.tobytes() == np.array([ks.valid for ks in stiffness]).tobytes()
            error, end = raised(lambda: dm.propagate(sys_, z0, tau, steps, method, epsilon))
            assert error == stop, method
            if end is not None:
                assert np.concatenate((end.q, end.p)).tobytes() == states[-1].tobytes(), method
