"""Post-hoc trajectory analysis: energy ledgers, periods, convergence.

The energy report reads the ledger ``integrate`` recorded and computes only
the initial energy E⁰; the tests recompute that ledger from the states.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientOscillationError
from .integrators import Trajectory, _check_scheme, propagate
from .system import DEFAULT_EPSILON, DampedLinearSystem, PhaseState, _Record, _frozen, \
    _real, analytic_1d, quadratic_energy


class EnergyReport(_Record):
    """Energy/work/ledger series of a trajectory plus summary statistics.

    Series include the initial sample (work 0, ledger equal to the initial
    energy), taken by ``system._frozen``. ``max_hhat_deviation`` is max_k |Ĥ_k - E⁰|;
    ``max_energy_residual`` is the largest violation of the per-step
    identity E_{k+1} - E_k = -(Δq)ᵀC(Δq)/τ, which holds to round-off for
    the midpoint schemes but not for Runge-Kutta.
    """

    energy: np.ndarray
    work_cumulative: np.ndarray
    hhat: np.ndarray
    initial_energy: float
    max_hhat_deviation: float
    max_energy_residual: float
    monotone: bool
    singular_steps: int

    def __post_init__(self):
        self.__dict__.update(energy=_frozen(self.energy), hhat=_frozen(self.hhat),
                             work_cumulative=_frozen(self.work_cumulative))


def energy_report(tr: Trajectory) -> EnergyReport:
    """A trajectory's ledger, read from its arrays, headed by E⁰ of its first state."""
    e0 = quadratic_energy(tr.system.K, tr.q[0], tr.p[0])
    energy = np.concatenate(([e0], tr.energy))
    work_cumulative = np.concatenate(([0.0], np.cumsum(tr.work)))
    hhat = np.concatenate(([e0 + 0.0], tr.hhat))
    for a in (energy, work_cumulative, hhat):
        a.setflags(write=False)
    residuals = np.abs(np.diff(energy) + tr.work)
    return EnergyReport(
        energy=energy,
        work_cumulative=work_cumulative,
        hhat=hhat,
        initial_energy=float(energy[0]),
        max_hhat_deviation=float(np.max(np.abs(hhat - energy[0]))),
        max_energy_residual=float(residuals.max()) if residuals.size else 0.0,
        monotone=bool(np.all(np.diff(energy) <= 0.0)),
        singular_steps=int(np.count_nonzero(tr.singular)),
    )


def period_estimate(tr: Trajectory, component: int = 0) -> float:
    """Mean spacing between successive upward zero crossings of one coordinate.

    Crossing times are linearly interpolated between bracketing samples;
    at least three upward crossings (two spacings) are required, otherwise
    :class:`InsufficientOscillationError` is raised. A ``component`` that is
    not an int or numpy integer in [0, n) raises ``IndexError``.
    """
    if isinstance(component, bool) or not isinstance(component, (int, np.integer)) \
            or not 0 <= component < tr.system.n:
        raise IndexError(f"component {component!r} is no index for n={tr.system.n}")
    t = tr.t
    x = tr.q[:, component]
    below = x[:-1] < 0.0
    atorabove = x[1:] >= 0.0
    idx = np.flatnonzero(below & atorabove)
    if idx.size < 3:
        raise InsufficientOscillationError(
            f"need at least 3 upward zero crossings, found {idx.size}"
        )
    frac = -x[idx] / (x[idx + 1] - x[idx])
    crossings = t[idx] + frac * (t[idx + 1] - t[idx])
    return float(np.mean(np.diff(crossings)))


#: Most steps one convergence study may take, ladder and RK4 reference
#: together, each weighted by ``STEP_COST`` at its method and size; 10⁸
#: direct midpoint steps of a scalar system take minutes, so at every n the
#: bound admits minutes of stepping. A larger study is refused before any
#: stepping.
MAX_STUDY_STEPS = 10 ** 8

#: A step's cost in direct midpoint steps of a scalar system (about
#: 0.8-1.7 µs each), as (cost at n = 1, cost of each further degree of
#: freedom): ``first + per_dof · (n - 1)``. Each slope is rounded up from
#: the ratios measured by ``propagate`` on seeded systems (best of 7 on a
#: shared 2-CPU host), which at n = 1, 2, 4, 8 and 16 read 1, 7, 14, 20
#: and 35 for a direct step (a 2n-row solve), 22, 46, 103, 161 and 286
#: for an indirect one (a 2n-row factor and solve) and 22, 16, 19, 26
#: and 38 for RK4 (four numpy matvecs, whose call overhead dominates).
STEP_COST = {"midpoint_direct": (1, 3), "midpoint_indirect": (20, 20), "rk4": (20, 2)}


#: How far RK4's |R(hλ)| may pass max(1, |e^{hλ}|): rounding reads 1 + 2.2e-16 on undamped
#: modes, and over the 5·10⁶ RK4 steps MAX_STUDY_STEPS admits this grows a mode < 5e-6.
RK4_SLACK = 1e-12


def _step_cost(method: str, n: int) -> int:
    """One step's ``STEP_COST`` on an n-DOF system."""
    first, per_dof = STEP_COST[method]
    return first + per_dof * (n - 1)


class ConvergenceRow(_Record):
    tau: float
    error: float
    observed_order: float | None


class ConvergenceTable(_Record):
    """Step-halving error ladder with observed orders between rows."""

    rows: tuple[ConvergenceRow, ...]
    reference: str


def _step_count(t_final: float, tau: float) -> int:
    """round(t_final / tau), for a positive finite step and a finite ratio."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"step size {tau} is not positive and finite")
    ratio = t_final / tau
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / tau = {t_final} / {tau} is not finite")
    return round(ratio)


def convergence_study(sys: DampedLinearSystem, z0: PhaseState, tau_max: float,
                      levels: int, t_final: float, method: str = "midpoint_direct",
                      epsilon: float = DEFAULT_EPSILON) -> ConvergenceTable:
    """Global phase-space error at ``t_final`` over a step-halving ladder.

    The ladder is tau_max, tau_max/2, ..., halved ``levels`` times in
    total; ``t_final`` must be an exact multiple of every step size. The
    reference is the closed-form underdamped solution for scalar systems,
    otherwise a Runge-Kutta run at tau_max/1024. Errors are max-norm over
    the stacked (q, p) vector; observed orders are log₂ of successive
    error ratios, None where a ratio is not finite and positive. A bad
    method or ε, a ``levels`` that is not an int or numpy integer (never
    truncated), or a study whose ladder and reference steps, weighted by
    ``STEP_COST`` at their method and n, add up to more than
    ``MAX_STUDY_STEPS``, raises ``ValueError`` before any stepping, and so do a
    failed eigen-solve and an RK4 reference that amplifies a mode (``RK4_SLACK``).
    """
    _check_scheme(method, epsilon)
    if isinstance(levels, bool) or not isinstance(levels, (int, np.integer)):
        raise ValueError(f"levels must be an integer, got {levels!r}")
    levels = int(levels)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not (_real(tau_max) and _real(t_final)) \
            or not math.isfinite(tau_max) or not math.isfinite(t_final):
        raise ValueError(f"tau_max and t_final must be finite, got {tau_max} and {t_final}")
    if not tau_max > 0.0 or not t_final > 0.0:
        raise ValueError("tau_max and t_final must be positive")
    taus = []
    for i in range(levels):
        try:
            taus.append(tau_max / 2.0 ** i)
        except OverflowError:
            raise ValueError(f"step size tau_max / 2**{i} is out of float range") from None
    counts = []
    for tau in taus:
        steps = _step_count(t_final, tau)
        if steps < 1 or abs(steps * tau - t_final) > 1e-9 * max(1.0, abs(t_final)):
            raise ValueError(
                f"t_final={t_final} is not an exact multiple of tau={tau}"
            )
        counts.append(steps)

    k = float(sys.K[0, 0]) if sys.n == 1 else 0.0
    c = float(sys.C[0, 0]) if sys.n == 1 else 0.0
    closed_form = sys.n == 1 and c >= 0.0 and c * c < 4.0 * k
    tau_ref = tau_max / 1024.0
    ref_steps = 0 if closed_form else _step_count(t_final, tau_ref)
    # Summed as floats: a sum of counts past the float range is inf.
    cost = (_step_cost(method, sys.n) * sum(map(float, counts))
            + _step_cost("rk4", sys.n) * float(ref_steps))
    if cost > MAX_STUDY_STEPS:
        raise ValueError(f"the study costs {cost:.3g} direct midpoint steps (STEP_COST), "
                         f"more than MAX_STUDY_STEPS = {MAX_STUDY_STEPS}")
    modes = None if closed_form else np.linalg.eigvals(
        np.block([[0.0 * sys.K, np.eye(sys.n)], [-sys.K, -sys.C]]))

    def gain(h):   # max over λ of |R(hλ)| / max(1, |e^{hλ}|), R RK4's stability polynomial
        with np.errstate(all="ignore"):
            return np.max(np.abs(np.polyval([1 / 24, 1 / 6, 0.5, 1.0, 1.0], h * modes))
                          / np.maximum(1.0, np.exp(h * modes.real)))
    if not closed_form and not gain(tau_ref) <= 1.0 + RK4_SLACK:   # also where it is NaN
        ok, bad = 0.0, tau_max
        for _ in range(60):   # bisected for the largest tau_max that passes
            ok, bad = (m, bad) if gain((m := (ok + bad) / 2) / 1024) <= 1 + RK4_SLACK else (ok, m)
        raise ValueError(f"the RK4 reference at h = {tau_ref!r} amplifies a mode: |R(h*lambda)| / "
                         f"max(1, |exp(h*lambda)|) = {gain(tau_ref):.6g} > 1 + {RK4_SLACK:g}; "
                         f"the largest tau_max that passes is about {ok:.6g}")
    if closed_form:
        q_ref, p_ref = analytic_1d(k, c, float(z0.q[0]), float(z0.p[0]), t_final)
        ref = np.array([q_ref, p_ref])
        reference = "closed-form underdamped solution"
    else:
        final = propagate(sys, z0, tau_ref, ref_steps, "rk4", epsilon)
        ref = np.concatenate((final.q, final.p))
        reference = f"rk4 at tau={tau_ref!r}"

    errors = []
    for tau, steps in zip(taus, counts):
        final = propagate(sys, z0, tau, steps, method, epsilon)
        errors.append(float(np.max(np.abs(np.concatenate((final.q, final.p)) - ref))))

    rows = [ConvergenceRow(taus[0], errors[0], None)]
    for i in range(1, levels):
        ratio = errors[i - 1] / errors[i] if errors[i] > 0.0 else math.nan
        order = float(np.log2(ratio)) if 0.0 < ratio < math.inf else None
        rows.append(ConvergenceRow(taus[i], errors[i], order))
    return ConvergenceTable(rows=tuple(rows), reference=reference)
