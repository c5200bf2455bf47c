"""Time-stepping schemes and trajectory assembly.

Three schemes share one step kernel: the time-centered (implicit
midpoint) scheme applied directly to the damped system, the same scheme
applied indirectly through the per-step substituting conservative system,
and a classical Runge-Kutta 4 baseline. ``integrate`` steps any of them and
records per-step energy/work ledgers and symplectic defects in arrays;
``propagate`` returns only the final state.

The midpoint step solves the linear factor-pair system M·z' = N·z with

    M = [[I, -(τ/2)·I], [(τ/2)·K + C, I]]
    N = [[I, +(τ/2)·I], [-(τ/2)·K + C, I]]

collected from the centered difference relations; the same builder with
stiffness K + K̃ and zero damping yields the substituting scheme's pair.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionError, IntegrationError, InvalidStiffnessError, \
    SingularMatrixError
from .symplectic import frobenius_squared, symplectic_form, symplectic_defect
from .system import DEFAULT_EPSILON, DampedLinearSystem, EquivalentStiffness, PhaseState, \
    _Record, _equivalent_stiffness_arrays, _equivalent_stiffness_floats, _frozen, _real, \
    _step_size, damping_work, quadratic_energy

METHODS = ("midpoint_direct", "midpoint_indirect", "rk4")

#: Bytes of stacked 2n×2n matrices (factors, right-hand sides, transition
#: matrices) one verification pass holds. Larger passes spread the
#: interpreter overhead over more steps but raise peak memory.
_VERIFY_BYTES = 256 * 1024

#: Bytes of per-step arrays one ``integrate`` run may hold; a longer run
#: is refused with ``ValueError`` before any of them is allocated.
MAX_RUN_BYTES = 2 ** 30


def _verify_chunk(n: int) -> int:
    """Steps per verification pass for n degrees of freedom."""
    return max(1, _VERIFY_BYTES // (3 * 8 * (2 * n) ** 2))


def scheme_factors(K, C, tau: float):
    """Factor pair (M, N) of the time-centered scheme M·z' = N·z.

    Exposed so the factor matrices themselves can be tested for symplectic
    character without forming any inverse. A stack of stiffness matrices
    (N, n, n) gives stacked pairs (N, 2n, 2n).
    """
    K = np.asarray(K, dtype=float)
    C = np.asarray(C, dtype=float)
    n = K.shape[-1]
    half = 0.5 * tau
    idx = np.arange(n)
    shape = np.broadcast_shapes(K.shape, C.shape)[:-2] + (2 * n, 2 * n)
    template = np.eye(2 * n)
    template[idx, n + idx] = -half
    m = np.empty(shape)
    m[...] = template
    template[idx, n + idx] = half
    nn = np.empty(shape)
    nn[...] = template
    # (τ/2)·K may overflow to inf, silently; the factor then fails its pivot test.
    with np.errstate(over="ignore", invalid="ignore"):
        m[..., n:, :n] = half * K + C
        nn[..., n:, :n] = C - half * K
    return m, nn


def _substituting_pairs(K, tau: float):
    """Builder of one run's substituting factor pairs.

    The returned ``pairs(d)`` is ``scheme_factors(K + np.diag(d), 0, tau)``
    bit for bit, for one K̃ diagonal d (a float list or an (n,) array) or
    a stack of them (N, n). A stack is ``scheme_factors`` of the stacked
    K with d added on its diagonal. One d copies the pair with K̃ = 0 and
    writes only the diagonal of the lower-left blocks, entry by entry:
    s = (τ/2)·(K[i, i] + d[i]), stored as s + 0.0 in M and 0.0 - s in N.
    The other entries of that block are the template's (τ/2)·K + 0.0,
    which already turns a -0.0 into +0.0, as adding the zero off-diagonal
    of diag(d) and the zero damping does.
    """
    n = K.shape[0]
    zeros = np.zeros_like(K)
    m0, n0 = scheme_factors(K, zeros, tau)
    half = 0.5 * tau
    kfloats = np.diagonal(K).tolist()
    idx = np.arange(n)

    def pairs(d):
        if isinstance(d, list) or d.ndim == 1:
            m, nn = m0.copy(), n0.copy()
            for i, k, di in zip(range(n), kfloats, d):
                s = half * (k + di)
                m[n + i, i], nn[n + i, i] = s + 0.0, 0.0 - s
            return m, nn
        stiffness = np.array(np.broadcast_to(K, d.shape + (n,)))
        stiffness[..., idx, idx] += d
        return scheme_factors(stiffness, zeros, tau)
    return pairs


def _rk4(K, C, tau):
    """RK4's step z ↦ z' on z = (q, p): stages z + h·k, h = τ/2, τ/2,
    τ, each k the slope (p, -K·q - C·p) of the one before, then z + (τ/6)·
    (k₁ + 2k₂ + 2k₃ + k₄), on Python floats. K·q and C·p are ``.dot`` (``@``
    at n = 1, see ``_step_kernel``) of the halves of one buffer each slope
    fills at once, cheaper than converting a list in every product."""
    n = K.shape[0]
    half, sixth = 0.5 * tau, tau / 6.0
    kq, cp = (K.dot, C.dot) if n > 1 else (K.__matmul__, C.__matmul__)
    buffer = np.empty(2 * n)
    q, p = buffer[:n], buffer[n:]

    def slope(zl):
        buffer[:] = zl
        return zl[n:] + [-a - b for a, b in zip(kq(q).tolist(), cp(p).tolist())]

    def step(z, out):
        z0 = z.tolist()
        ks = [slope(z0)]
        for h in (half, half, tau):
            ks.append(slope([x + h * v for x, v in zip(z0, ks[-1])]))
        out[:] = [x + sixth * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(z0, *ks)]
    return step


def _step_kernel(K, C, tau, method, epsilon, direct):
    """The one-step map of ``method``: ``step(z, out)`` writes z' into
    ``out`` (not z), never into the state z = (q, p). The indirect step
    returns ``ks``; what the others return is not used.

    ``direct`` is the direct scheme's ``(factorization, N)`` pair, which
    depends only on (K, C, τ); RK4 ignores it. It is prepared once as
    M⁻¹(N·z), ``linalg.lu_solver(factorization, N)``: the direct step and
    the indirect probe. Its N·z is ``ndarray.dot``, cheaper per call than
    ``@`` and the same bits for every 2n×2n matrix-vector product tried,
    with signed zeros, infinities, NaN, 1e-300 and 3e300 entries, under
    the SkylakeX, Haswell and Sandybridge OpenBLAS kernels; the two differ
    only for one-element products, and 2n ≥ 2. The substituting system
    steps the same way, ``linalg.lu_solver(factorization, N)(z, out)``
    with its own pair, prepared for its one solve. ``ks`` is
    ``(diag, valid, substitute)``: the step's equivalent stiffness as
    float lists and, when every component is valid, the substituting
    scheme's ``(factorization, N)`` pair it stepped with (else None, and
    z' is the probe)."""
    n = K.shape[0]
    if method == "rk4":
        return _rk4(K, C, tau)
    probe = linalg.lu_solver(*direct)
    if method == "midpoint_direct":
        return probe
    pairs = _substituting_pairs(K, tau)

    def step(z, out):
        probe(z, out)
        diag, valid = _equivalent_stiffness_floats(C, z[:n], out[:n], tau, epsilon)
        if not all(valid):
            return diag, valid, None
        m2, n2 = pairs(diag)
        lu2 = linalg.lu_factor(m2)
        linalg.lu_solver(lu2, n2)(z, out)
        return diag, valid, (lu2, n2)
    return step


class TransitionPair(_Record):
    """Both one-step transition matrices, taken by ``system._frozen``, with
    their symplectic defects; the indirect half is absent without a valid K̃."""

    direct: np.ndarray
    defect_direct: float
    indirect: np.ndarray | None
    defect_indirect: float | None

    def __post_init__(self):
        indirect = None if self.indirect is None else _frozen(self.indirect)
        self.__dict__.update(direct=_frozen(self.direct), indirect=indirect)


def transition_matrices(sys: DampedLinearSystem, ks: EquivalentStiffness | None,
                        tau: float) -> TransitionPair:
    """Form both transition matrices by explicit solve against each column.

    The direct matrix depends only on (K, C, τ). The indirect matrix needs
    the step's equivalent stiffness ``ks``; pass None to get only the
    direct half, while a ``ks`` with invalid components raises
    :class:`InvalidStiffnessError`.
    """
    tau = _step_size(tau)
    form = symplectic_form(sys.n)
    m, nn = scheme_factors(sys.K, sys.C, tau)
    direct = linalg.lu_solve(linalg.lu_factor(m), nn)
    direct.setflags(write=False)
    defect_direct = symplectic_defect(direct, form)
    if ks is None:
        return TransitionPair(direct, defect_direct, None, None)
    if ks.diag.shape != (sys.n,):
        raise DimensionError(
            f"equivalent stiffness has {ks.diag.shape[0]} components, system has {sys.n}"
        )
    if not ks.all_valid:
        raise InvalidStiffnessError(np.flatnonzero(~ks.valid))
    m2, n2 = _substituting_pairs(sys.K, tau)(ks.diag)
    indirect = linalg.lu_solve(linalg.lu_factor(m2), n2)
    indirect.setflags(write=False)
    defect_indirect = symplectic_defect(indirect, form)
    return TransitionPair(direct, defect_direct, indirect, defect_indirect)


class StepRecord(_Record):
    """State and diagnostics at the end of one integration step.

    ``hhat`` is the running conservative ledger E + Σ work_increment; it
    telescopes to the initial energy for the midpoint schemes.
    ``defect_indirect`` is present exactly when the step is non-singular.
    """

    state: PhaseState
    energy: float
    work_increment: float
    hhat: float
    defect_direct: float
    defect_indirect: float | None
    singular: bool
    ktilde: EquivalentStiffness


class Trajectory(_Record):
    """An integration run held as read-only arrays.

    ``t``, ``q`` and ``p`` hold the n_steps + 1 samples, initial state
    first. Entry k - 1 of each per-step array describes step k:
    ``energy``, the dissipated ``work`` (Δq)ᵀC(Δq)/τ, the running ledger
    ``hhat`` = energy + Σ work, the equivalent stiffness ``ktilde`` and
    its validity mask ``valid`` (both (n_steps, n)), and
    ``defect_indirect``. ``defect_direct`` is the direct transition
    matrix's defect, one value for the run. ``norm2_direct`` and
    ``norm2_indirect`` are the squared Frobenius norms ‖F‖_F² of the same
    transition matrices, the scale their defects are judged against.
    Defects and norms are NaN where not given, and the indirect ones on
    singular steps.
    Arrays are taken by the one freeze rule (``system._frozen``), so no
    caller can change a trajectory afterwards.
    """

    system: DampedLinearSystem
    tau: float
    method: str
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energy: np.ndarray
    work: np.ndarray
    hhat: np.ndarray
    ktilde: np.ndarray
    valid: np.ndarray
    defect_direct: float
    defect_indirect: np.ndarray
    norm2_direct: float = np.nan
    norm2_indirect: np.ndarray | None = None

    def __post_init__(self):
        n = self.system.n
        steps = len(self.t) - 1
        if self.norm2_indirect is None:
            self.__dict__["norm2_indirect"] = np.full(steps, np.nan)
        shapes = {"t": (steps + 1,), "q": (steps + 1, n), "p": (steps + 1, n),
                  "energy": (steps,), "work": (steps,), "hhat": (steps,),
                  "ktilde": (steps, n), "valid": (steps, n), "defect_indirect": (steps,),
                  "norm2_indirect": (steps,)}
        for name, shape in shapes.items():
            a = _frozen(getattr(self, name), bool if name == "valid" else float)
            if a.shape != shape:
                raise DimensionError(f"{name} has shape {a.shape}, expected {shape}")
            self.__dict__[name] = a
        self.__dict__.update(tau=float(self.tau), defect_direct=float(self.defect_direct),
                             norm2_direct=float(self.norm2_direct))

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1

    @property
    def singular(self) -> np.ndarray:
        """Per-step flag: some component of the step's K̃ was singular."""
        return ~self.valid.all(axis=1)

    @cached_property
    def steps(self) -> tuple[StepRecord, ...]:
        """Per-step records, built from the arrays on first use."""
        singular = self.singular.tolist()
        return tuple(
            StepRecord(PhaseState(self.t[k + 1], self.q[k + 1], self.p[k + 1]),
                       float(self.energy[k]), float(self.work[k]), float(self.hhat[k]),
                       self.defect_direct,
                       None if singular[k] else float(self.defect_indirect[k]), singular[k],
                       EquivalentStiffness(self.ktilde[k], self.valid[k]))
            for k in range(self.n_steps)
        )

    def states(self) -> list[PhaseState]:
        """All states including the initial one, in time order."""
        return [PhaseState(t, q, p) for t, q, p in zip(self.t, self.q, self.p)]


def substituting_factors(tr: Trajectory):
    """Yield ``(rows, M, N)`` per verification chunk of ``tr``'s non-singular
    steps: their indices into the per-step arrays and their stacked
    substituting factor pairs, each ``scheme_factors(K + diag(K̃), 0, τ)``."""
    pairs = _substituting_pairs(tr.system.K, tr.tau)
    steps = np.flatnonzero(~tr.singular)
    chunk = _verify_chunk(tr.system.n)
    for lo in range(0, len(steps), chunk):
        rows = steps[lo:lo + chunk]
        yield (rows, *pairs(tr.ktilde[rows]))


def _check_scheme(method, epsilon):
    """``ValueError`` unless ``method`` is in ``METHODS`` and 0 < ε < inf."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not (_real(epsilon) and 0.0 < epsilon < np.inf):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")


def _start(sys, z0, tau, n_steps, method, epsilon):
    """Checked arguments and stepper of one run: ``(n_steps, tau, direct,
    step)``, with ``direct`` the direct scheme's ``(factorization, N)``
    and ``step`` the ``_step_kernel`` of ``method``. ``n_steps`` is an
    int or numpy integer, never truncated, 0 < τ < inf and t₀ + n_steps·τ
    is finite, so no timestamp overflows. A singular direct factor fails
    the run with :class:`IntegrationError` at step 1, for every method."""
    if z0.n != sys.n:
        raise DimensionError(f"state dimension {z0.n} does not match system {sys.n}")
    tau = _step_size(tau)
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_scheme(method, epsilon)
    n_steps = int(n_steps)
    try:   # the last timestamp, as integrate and propagate compute it
        finite = np.isfinite(z0.t + n_steps * tau)
    except OverflowError:   # an n_steps past the float range
        finite = False
    if not finite:
        raise ValueError(f"t0 + n_steps*tau is not finite (t0 = {z0.t!r}, tau = {tau!r})")
    m, nn = scheme_factors(sys.K, sys.C, tau)
    try:
        direct = linalg.lu_factor(m), nn
    except SingularMatrixError as exc:
        raise IntegrationError(1, str(exc)) from exc
    return n_steps, tau, direct, _step_kernel(sys.K, sys.C, tau, method,
                                              float(epsilon), direct)


def integrate(sys: DampedLinearSystem, z0: PhaseState, tau: float, n_steps: int,
              method: str = "midpoint_direct",
              epsilon: float = DEFAULT_EPSILON, *, defects: bool = True) -> Trajectory:
    """Integrate ``n_steps`` steps and record the full per-step ledger.

    The trajectory holds the states, recomputable energy, the dissipated
    work (Δq)ᵀC(Δq)/τ (same formula for every method, for comparability),
    the running ledger ``hhat``, both symplectic defects and the squared
    norms of their transition matrices (the indirect ones only on
    non-singular steps) and each step's equivalent stiffness.
    Timestamps are t₀ + k·τ from integer k.

    The loop only steps, each step writing its state into the next row
    of the trajectory array. After each chunk of steps,
    sized so its stacked 2n×2n matrices fit ``_VERIFY_BYTES``, the chunk's
    states are checked for finiteness and its substituting maps are
    verified in one stacked pass; the indirect scheme stacks the factors
    its steps already computed. A stepper failure, a non-finite state or
    a singular verification factor aborts with :class:`IntegrationError`
    carrying the lowest failing 1-based step index, and so does the first
    step whose energy, work or ``hhat`` is not finite, where that comes
    first.

    With ``defects=False`` no transition matrix is solved and every
    defect and norm is NaN; the substituting maps are still factored, so
    the run fails where it fails with defects.
    """
    n_steps, tau, direct, step = _start(sys, z0, tau, n_steps, method, epsilon)
    K, C, n = sys.K, sys.C, sys.n
    # Per step: the floats of z (2n), ktilde (n), t, energy, work, hhat and
    # the two defect arrays (6), and the n bools of valid.
    if (n_steps + 1) * (8 * (3 * n + 6) + n) > MAX_RUN_BYTES:
        raise ValueError(f"{n_steps} steps would pass MAX_RUN_BYTES = {MAX_RUN_BYTES}")
    form = symplectic_form(n)
    defect_direct = norm2_direct = np.nan
    if defects:
        f = linalg.lu_solve(*direct)
        defect_direct, norm2_direct = symplectic_defect(f, form), frobenius_squared(f)
    if method != "midpoint_indirect":
        pairs = _substituting_pairs(K, tau)
    z = np.empty((n_steps + 1, 2 * n))
    z[0, :n], z[0, n:] = z0.q, z0.p
    ktilde = np.zeros((n_steps, n))
    valid = np.zeros((n_steps, n), dtype=bool)
    defect_indirect = np.full(n_steps, np.nan)
    norm2_indirect = np.full(n_steps, np.nan)
    chunk = _verify_chunk(n)
    failure = None
    zk = z[0]
    for lo in range(1, n_steps + 1, chunk):
        hi = min(lo + chunk, n_steps + 1)
        pending = []
        # Overflow past a blow-up is reported below as a non-finite state.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for k in range(lo, hi):
                    ks = step(zk, zk := z[k])
                    if method == "midpoint_indirect":
                        ktilde[k - 1], valid[k - 1], substitute = ks
                        if substitute is not None and defects:
                            pending.append((k, *substitute[0], substitute[1]))
            except SingularMatrixError as exc:
                hi, failure = k, IntegrationError(k, str(exc))
        finite = np.isfinite(z[lo:hi]).all(axis=1)
        if not finite.all():
            hi = lo + int(np.argmin(finite))
            failure = IntegrationError(hi, "state is not finite")
        if method == "midpoint_indirect":
            pending = [entry for entry in pending if entry[0] < hi]
            steps = np.array([entry[0] for entry in pending], dtype=int)
            if pending:
                _, lus, perms, rhs = (np.array(part) for part in zip(*pending))
                factorization = (lus, perms)
        else:
            ktilde[lo - 1:hi - 1], valid[lo - 1:hi - 1] = _equivalent_stiffness_arrays(
                C, z[lo - 1:hi - 1, :n], z[lo:hi, :n], tau, float(epsilon))
            steps = lo + np.flatnonzero(valid[lo - 1:hi - 1].all(axis=1))
            if steps.size:
                m2, rhs = pairs(ktilde[steps - 1])
                try:
                    factorization = linalg.lu_factor(m2)
                except SingularMatrixError as exc:
                    failure = IntegrationError(int(steps[exc.index]), str(exc))
                    break
        if steps.size and defects:
            f = linalg.lu_solve(factorization, rhs)
            defect_indirect[steps - 1] = symplectic_defect(f, form)
            norm2_indirect[steps - 1] = frobenius_squared(f)
        if failure is not None:
            break
    # The states before a failing step are finite; a ledger that overflows
    # among them fails first, at its own step, whatever the run's length.
    end = n_steps + 1 if failure is None else failure.step_index
    z.setflags(write=False)
    q, p = z[:end, :n], z[:end, n:]
    with np.errstate(over="ignore", invalid="ignore"):
        energy = quadratic_energy(K, q[1:], p[1:])
        work = damping_work(sys, q[:-1], q[1:], tau)
        hhat = energy + np.cumsum(work)
    finite = np.isfinite(hhat)
    if not finite.all():
        raise IntegrationError(1 + int(np.argmin(finite)), "energy ledger is not finite")
    if failure is not None:
        raise failure
    t = z0.t + np.arange(n_steps + 1) * tau
    t[0] = z0.t
    # Frozen here, so the Trajectory keeps these arrays without copying.
    for a in (t, energy, work, hhat, ktilde, valid, defect_indirect, norm2_indirect):
        a.setflags(write=False)
    return Trajectory(system=sys, tau=tau, method=method, t=t, q=q, p=p,
                      energy=energy, work=work, hhat=hhat,
                      ktilde=ktilde, valid=valid, defect_direct=defect_direct,
                      defect_indirect=defect_indirect, norm2_direct=norm2_direct,
                      norm2_indirect=norm2_indirect)


def propagate(sys: DampedLinearSystem, z0: PhaseState, tau: float, n_steps: int,
              method: str = "midpoint_direct",
              epsilon: float = DEFAULT_EPSILON) -> PhaseState:
    """Advance ``n_steps`` steps and return only the final state.

    Record-free variant of :func:`integrate` for convergence ladders and
    reference solutions, where per-step diagnostics would dominate cost;
    a direct step is one call of the prepared M⁻¹(N·z) (``_step_kernel``).
    Finiteness is checked once, on the final state; only when that check
    or a step fails is the run replayed step by step, so the
    :class:`IntegrationError` names the first failing step.
    """
    n_steps, tau, _, step = _start(sys, z0, tau, n_steps, method, epsilon)
    start = np.concatenate((z0.q, z0.p))
    z, out = start.copy(), np.empty_like(start)   # start is kept for a replay
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(1, n_steps + 1):
                step(z, out)
                z, out = out, z
        except SingularMatrixError as exc:
            failure = IntegrationError(k, str(exc))
        if failure is None and np.isfinite(z).all():
            return PhaseState(z0.t + n_steps * tau, z[:sys.n], z[sys.n:])
        z = start
        for k in range(1, failure.step_index if failure else n_steps + 1):
            step(z, out)
            z, out = out, z
            if not np.isfinite(z).all():
                raise IntegrationError(k, "state is not finite")
    raise failure
