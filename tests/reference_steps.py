"""One step of each scheme, built from the public factor and LU functions.

``reference_step`` does not go through ``integrators._step_kernel``, so a
test that compares ``integrate`` or ``propagate`` with it bit for bit
checks the kernel against an independent assembly of the same scheme:

- the midpoint schemes solve M·z' = N·z with ``scheme_factors``,
  ``lu_factor`` and ``lu_solve`` of N·z as one column, which runs the
  stack loop (``linalg._substitute``) where the kernel runs the
  one-vector loop; the substituting scheme with stiffness K + diag(K̃)
  and zero damping;
- K̃ comes from ``system._equivalent_stiffness_arrays``, the package's one
  implementation of its formula;
- RK4 writes its four stages out as arrays, in the order of the
  elementwise operations of ``integrators._rk4``.
"""

import numpy as np

import damped_midpoint as dm
from damped_midpoint.system import _equivalent_stiffness_arrays


def midpoint_solve(K, C, tau, z):
    m, nn = dm.scheme_factors(K, C, tau)
    return dm.lu_solve(dm.lu_factor(m), (nn @ z)[:, None])[:, 0]


def rk4(K, C, tau, z):
    n = K.shape[0]
    q, p = z[:n], z[n:]
    k1q = p
    k1p = -(K @ q) - C @ p
    q2 = q + (0.5 * tau) * k1q
    p2 = p + (0.5 * tau) * k1p
    k2q = p2
    k2p = -(K @ q2) - C @ p2
    q3 = q + (0.5 * tau) * k2q
    p3 = p + (0.5 * tau) * k2p
    k3q = p3
    k3p = -(K @ q3) - C @ p3
    q4 = q + tau * k3q
    p4 = p + tau * k3p
    k4q = p4
    k4p = -(K @ q4) - C @ p4
    sixth = tau / 6.0
    return np.concatenate((q + sixth * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
                           p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)))


def reference_step(sys_, z, tau, method, epsilon=dm.DEFAULT_EPSILON):
    """One step of ``method`` from the stacked state z = (q, p).

    Returns the next stacked state and the step's equivalent stiffness.
    The indirect scheme returns its probe, the direct step, where some K̃
    component is singular, and otherwise the substituting system's step.
    A singular scheme matrix raises :class:`dm.SingularMatrixError`.
    """
    K, C, n = sys_.K, sys_.C, sys_.n
    z = np.asarray(z, dtype=float)
    if method == "rk4":
        following = rk4(K, C, tau, z)
    else:
        following = midpoint_solve(K, C, tau, z)
    diag, valid = _equivalent_stiffness_arrays(C, z[:n], following[:n], tau, epsilon)
    if method == "midpoint_indirect" and valid.all():
        following = midpoint_solve(K + np.diag(diag), np.zeros_like(C), tau, z)
    return following, dm.EquivalentStiffness(diag=diag, valid=valid)
