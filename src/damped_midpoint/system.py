"""Damped linear mechanical systems and their energies.

Models the unit-mass equation of motion  q̈ + C·q̇ + K·q = 0  with symmetric
stiffness K and general (not necessarily symmetric) damping C. Also houses
the per-step equivalent-stiffness construction that replaces the damping
force by a position-proportional force along one trajectory, and the
closed-form underdamped scalar solution used as a convergence oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidStiffnessError
from .linalg import rowdot

#: Default relative guard below which the equivalent-stiffness quotient is
#: treated as singular (midpoint coordinate sum too close to zero).
DEFAULT_EPSILON = 1e-8

_SYMMETRY_RTOL = 1e-12
_PSD_TOL = 1e-12
_FLOOR = 1e-300


def _frozen(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DampedLinearSystem:
    """Unit-mass linear system q̈ + C·q̇ + K·q = 0.

    K must be symmetric (within 1e-12 relative); C is any square matrix of
    the same size. ``monotone_energy_certified`` records whether C + Cᵀ is
    positive semidefinite, i.e. whether the damping can only dissipate;
    it is advisory metadata, not a construction requirement.
    """

    K: np.ndarray
    C: np.ndarray
    label: str = ""
    n: int = field(init=False)
    monotone_energy_certified: bool = field(init=False)

    def __post_init__(self):
        k = np.asarray(self.K, dtype=float)
        c = np.asarray(self.C, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionError(f"stiffness must be square, got shape {k.shape}")
        if c.shape != k.shape:
            raise DimensionError(
                f"damping shape {c.shape} does not match stiffness shape {k.shape}"
            )
        if not np.all(np.isfinite(k)) or not np.all(np.isfinite(c)):
            raise ValueError("system matrices must be finite")
        asym = float(np.max(np.abs(k - k.T))) if k.size else 0.0
        scale = max(float(np.max(np.abs(k))) if k.size else 0.0, _FLOOR)
        if asym > _SYMMETRY_RTOL * scale:
            raise ValueError(
                f"stiffness must be symmetric: max |K - K^T| = {asym:.3e} "
                f"exceeds {_SYMMETRY_RTOL:.0e} relative"
            )
        sym = 0.5 * (c + c.T)
        smallest = float(np.linalg.eigvalsh(sym)[0])
        certified = smallest >= -_PSD_TOL * max(1.0, float(np.max(np.abs(sym))))
        object.__setattr__(self, "K", _frozen(k))
        object.__setattr__(self, "C", _frozen(c))
        object.__setattr__(self, "n", int(k.shape[0]))
        object.__setattr__(self, "monotone_energy_certified", bool(certified))


def make_system(K, C, label: str = "") -> DampedLinearSystem:
    """Validated construction of a :class:`DampedLinearSystem`."""
    return DampedLinearSystem(K=K, C=C, label=label)


@dataclass(frozen=True)
class PhaseState:
    """One phase-space sample: time t, coordinates q, momenta p (= q̇)."""

    t: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.shape != q.shape:
            raise DimensionError(
                f"coordinates and momenta must be equal-length vectors, "
                f"got shapes {q.shape} and {p.shape}"
            )
        if not (np.isfinite(self.t) and np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase state must be finite")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", _frozen(q))
        object.__setattr__(self, "p", _frozen(p))

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class EquivalentStiffness:
    """Diagonal stiffness replacing the damping force along one step.

    ``diag`` holds the diagonal entries; ``valid[i]`` is False where the
    defining quotient was singular (midpoint coordinate sum below the
    guard), in which case ``diag[i]`` is zero and the step is uncertified.
    """

    diag: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        diag = np.atleast_1d(np.asarray(self.diag, dtype=float))
        valid = np.atleast_1d(np.asarray(self.valid, dtype=bool))
        if diag.shape != valid.shape or diag.ndim != 1:
            raise DimensionError("diag and valid must be equal-length vectors")
        diag = np.where(valid, diag, 0.0)
        diag.setflags(write=False)
        valid = valid.copy()
        valid.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "valid", valid)

    @property
    def all_valid(self) -> bool:
        return bool(self.valid.all())

    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)


def _check_state(sys: DampedLinearSystem, s: PhaseState):
    if s.n != sys.n:
        raise DimensionError(f"state dimension {s.n} does not match system {sys.n}")


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A·x for one vector or for each row of a stack, one BLAS product per row."""
    return np.matmul(A, x[..., None])[..., 0]


def quadratic_energy(K: np.ndarray, q: np.ndarray, p: np.ndarray):
    """Total mechanical energy ½ pᵀp + ½ qᵀKq from raw arrays.

    One state gives a scalar; (N, n) stacks of states give N energies, each
    bit for bit the scalar of its row.
    """
    return 0.5 * rowdot(p, p) + 0.5 * rowdot(q, _matvec(K, q))


def total_energy(sys: DampedLinearSystem, s: PhaseState) -> float:
    """Total mechanical energy ½ pᵀp + ½ qᵀKq of a state."""
    _check_state(sys, s)
    return float(quadratic_energy(sys.K, s.q, s.p))


def damping_work(sys: DampedLinearSystem, q_from: np.ndarray, q_to: np.ndarray,
                 tau: float):
    """Energy dissipated over one step, (Δq)ᵀ·C·(Δq)/τ.

    Nonnegative whenever C + Cᵀ is positive semidefinite; the exact
    discrete energy identity of the midpoint scheme is
    E_after - E_before = -damping_work. Rows of (N, n) coordinate stacks
    give the work of N steps.
    """
    dq = np.asarray(q_to, dtype=float) - np.asarray(q_from, dtype=float)
    return rowdot(dq, _matvec(sys.C, dq)) / float(tau)


def _equivalent_stiffness_arrays(C: np.ndarray, q_k: np.ndarray, q_k1: np.ndarray,
                                 tau: float, epsilon: float):
    delta = q_k1 - q_k
    total = q_k1 + q_k
    scale = np.maximum(np.maximum(np.abs(q_k1), np.abs(q_k)), _FLOOR)
    valid = np.abs(total) > epsilon * scale
    diag = np.zeros_like(total)
    np.divide(2.0 * _matvec(C, delta), tau * total, out=diag, where=valid)
    return diag, valid


def equivalent_stiffness(sys: DampedLinearSystem, q_k, q_k1, tau: float,
                         epsilon: float = DEFAULT_EPSILON) -> EquivalentStiffness:
    """Diagonal equivalent stiffness for the step q_k -> q_k1.

    Component i is  Σ_j 2·C_ij·(q_k1[j] - q_k[j]) / (τ·(q_k1[i] + q_k[i])),
    the position-proportional force matching the damping force at the step
    midpoint. Where |q_k1[i] + q_k[i]| falls at or below ``epsilon`` times
    the component scale the quotient is singular: the entry is zeroed and
    flagged invalid instead of raising or overflowing.
    """
    if tau <= 0.0:
        raise ValueError(f"step size must be positive, got {tau}")
    q_k = np.atleast_1d(np.asarray(q_k, dtype=float))
    q_k1 = np.atleast_1d(np.asarray(q_k1, dtype=float))
    if q_k.shape != (sys.n,) or q_k1.shape != (sys.n,):
        raise DimensionError(
            f"coordinate vectors must have length {sys.n}, "
            f"got {q_k.shape} and {q_k1.shape}"
        )
    diag, valid = _equivalent_stiffness_arrays(sys.C, q_k, q_k1, float(tau), float(epsilon))
    return EquivalentStiffness(diag=diag, valid=valid)


def substituting_system(sys: DampedLinearSystem, ks: EquivalentStiffness) -> DampedLinearSystem:
    """Conservative system q̈ + (K + K̃)·q = 0 sharing the step's motion.

    Requires every component of ``ks`` valid; otherwise raises
    :class:`InvalidStiffnessError` listing the singular components. The
    result keeps a symmetric stiffness (K̃ is diagonal) and zero damping.
    """
    if ks.diag.shape != (sys.n,):
        raise DimensionError(
            f"equivalent stiffness has {ks.diag.shape[0]} components, system has {sys.n}"
        )
    if not ks.all_valid:
        raise InvalidStiffnessError(np.flatnonzero(~ks.valid))
    label = f"{sys.label}+substituting" if sys.label else "substituting"
    return DampedLinearSystem(
        K=sys.K + np.diag(ks.diag), C=np.zeros_like(sys.C), label=label
    )


def analytic_1d(k: float, c: float, q0: float, p0: float, t: float):
    """Closed-form underdamped scalar solution of q̈ + c·q̇ + k·q = 0.

    Valid for c² < 4k (underdamped). Returns (q(t), p(t)) with p = q̇
    differentiated analytically. Used as the reference for scalar
    convergence studies; other regimes are out of scope and rejected.
    """
    k = float(k)
    c = float(c)
    if k <= 0.0 or c < 0.0:
        raise ValueError(f"need k > 0 and c >= 0, got k={k}, c={c}")
    if c * c >= 4.0 * k:
        raise ValueError(
            f"underdamped regime required (c^2 < 4k), got c^2={c * c}, 4k={4.0 * k}"
        )
    wd = math.sqrt(k - 0.25 * c * c)
    amp = (p0 + 0.5 * c * q0) / wd
    decay = math.exp(-0.5 * c * t)
    cos_t = math.cos(wd * t)
    sin_t = math.sin(wd * t)
    q = decay * (q0 * cos_t + amp * sin_t)
    p = decay * ((amp * wd - 0.5 * c * q0) * cos_t - (q0 * wd + 0.5 * c * amp) * sin_t)
    return q, p
