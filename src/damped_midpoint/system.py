"""Damped linear mechanical systems and their energies.

Models the unit-mass equation of motion  q̈ + C·q̇ + K·q = 0  with symmetric
stiffness K and general (not necessarily symmetric) damping C. Also houses
the per-step equivalent-stiffness construction that replaces the damping
force by a position-proportional force along one trajectory, and the
closed-form underdamped scalar solution used as a convergence oracle.
"""

from __future__ import annotations

import math
from numbers import Real
from operator import attrgetter

import numpy as np

from .errors import DimensionError
from .linalg import rowdot

#: Default relative guard below which the equivalent-stiffness quotient is
#: treated as singular (midpoint coordinate sum too close to zero).
DEFAULT_EPSILON = 1e-8

_SYMMETRY_RTOL = 1e-12
_PSD_TOL = 1e-12
_FLOOR = 1e-300


def _frozen(a, dtype=float) -> np.ndarray:
    """Every record's freeze rule: ``a`` itself when it is a ``dtype`` ndarray
    that, like every array it views, is read-only; else one read-only copy.
    Arrays a function makes are frozen in place, so their record keeps them."""
    view = a
    while type(view) is np.ndarray and not view.flags.writeable:
        view = view.base
    if view is not None or getattr(a, "dtype", None) != dtype:
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


def _real(x) -> bool:
    """Whether ``x`` is a real number other than a bool, not coerced."""
    return isinstance(x, float) or isinstance(x, Real) and not isinstance(x, bool)


def _step_size(tau) -> float:
    """``tau`` as a float; ``ValueError`` unless it is a real number other
    than a bool with 0 < τ < inf."""
    if not (_real(tau) and 0.0 < tau < np.inf):
        raise ValueError(f"step size must be positive and finite, got {tau}")
    return float(tau)


class _Record:
    """Every record's immutable base. Its fields are the class's annotations; the
    ``derived`` ones are set by ``__post_init__``, the rest passed as to a frozen dataclass."""

    def __init_subclass__(cls, derived=()):
        cls._values = attrgetter(*cls.__annotations__)   # a record's field values, in order
        cls.__match_args__ = tuple(name for name in cls.__annotations__ if name not in derived)
        cls._defaults = {k: v for k, v in vars(cls).items() if k in cls.__match_args__}

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):   # bind as a call would
            kwargs = dict(self._defaults, **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or kwargs.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args = map(kwargs.__getitem__, names)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        """Check and normalise the fields; a record without checks has none."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__annotations__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values(self) == other._values(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._values(self))


class DampedLinearSystem(_Record, derived=("n", "monotone_energy_certified")):
    """Unit-mass linear system q̈ + C·q̇ + K·q = 0.

    K must be symmetric (within 1e-12 relative); C is any square matrix of
    the same size. ``monotone_energy_certified`` records whether C + Cᵀ is
    positive semidefinite, i.e. whether the damping can only dissipate;
    it is advisory metadata, not a construction requirement.
    """

    K: np.ndarray
    C: np.ndarray
    label: str = ""
    n: int
    monotone_energy_certified: bool

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        k, c = _frozen(self.K), _frozen(self.C)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionError(f"stiffness must be square, got shape {k.shape}")
        if not k.size:
            raise DimensionError("degrees of freedom must be >= 1, got 0")
        if c.shape != k.shape:
            raise DimensionError(
                f"damping shape {c.shape} does not match stiffness shape {k.shape}"
            )
        if not np.all(np.isfinite(k)) or not np.all(np.isfinite(c)):
            raise ValueError("system matrices must be finite")
        with np.errstate(over="ignore"):   # an inf asymmetry still rejects K
            asym = float(np.max(np.abs(k - k.T)))
        scale = max(float(np.max(np.abs(k))), _FLOOR)
        if asym > _SYMMETRY_RTOL * scale:
            raise ValueError(
                f"stiffness must be symmetric: max |K - K^T| = {asym:.3e} "
                f"exceeds {_SYMMETRY_RTOL:.0e} relative"
            )
        sym = 0.5 * c + 0.5 * c.T   # 0.5 * (c + c.T) on normal floats, without overflow
        smallest = float(np.linalg.eigvalsh(sym)[0])
        certified = smallest >= -_PSD_TOL * max(1.0, float(np.max(np.abs(sym))))
        self.__dict__.update(K=k, C=c, n=int(k.shape[0]),
                             monotone_energy_certified=bool(certified))


def make_system(K, C, label: str = "") -> DampedLinearSystem:
    """Validated construction of a :class:`DampedLinearSystem`."""
    return DampedLinearSystem(K=K, C=C, label=label)


class PhaseState(_Record):
    """One phase-space sample: time t, coordinates q, momenta p (= q̇)."""

    t: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if not _real(self.t):
            raise ValueError(f"time must be a real number, got {self.t!r}")
        q, p = np.atleast_1d(_frozen(self.q), _frozen(self.p))
        if q.ndim != 1 or p.shape != q.shape:
            raise DimensionError(
                f"coordinates and momenta must be equal-length vectors, "
                f"got shapes {q.shape} and {p.shape}"
            )
        if not (math.isfinite(self.t) and np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase state must be finite")
        self.__dict__.update(t=float(self.t), q=q, p=p)

    @property
    def n(self) -> int:
        return self.q.shape[0]


class EquivalentStiffness(_Record):
    """Diagonal stiffness replacing the damping force along one step.

    ``diag`` holds the diagonal entries; ``valid[i]`` is False where the
    defining quotient was singular (midpoint coordinate sum below the
    guard), in which case ``diag[i]`` is zero and the step is uncertified.
    """

    diag: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        diag, valid = np.atleast_1d(_frozen(self.diag), _frozen(self.valid, bool))
        if diag.shape != valid.shape or diag.ndim != 1:
            raise DimensionError("diag and valid must be equal-length vectors")
        if not valid.all():
            diag = np.where(valid, diag, 0.0)
            diag.setflags(write=False)
        self.__dict__.update(diag=diag, valid=valid)

    @property
    def all_valid(self) -> bool:
        return bool(self.valid.all())


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
    if s.n != sys.n:
        raise DimensionError(f"state dimension {s.n} does not match system {sys.n}")
    return float(quadratic_energy(sys.K, s.q, s.p))


def damping_work(sys: DampedLinearSystem, q_from: np.ndarray, q_to: np.ndarray,
                 tau: float):
    """Energy dissipated over one step, (Δq)ᵀ·C·(Δq)/τ.

    Nonnegative whenever C + Cᵀ is positive semidefinite; the exact
    discrete energy identity of the midpoint scheme is
    E_after - E_before = -damping_work. Rows of (N, n) coordinate stacks
    give the work of N steps. A τ that is not a positive finite real is
    refused with ``ValueError``.
    """
    tau = _step_size(tau)
    dq = np.asarray(q_to, dtype=float) - np.asarray(q_from, dtype=float)
    return rowdot(dq, _matvec(sys.C, dq)) / tau


def _equivalent_stiffness_arrays(C: np.ndarray, q_k: np.ndarray, q_k1: np.ndarray,
                                 tau: float, epsilon: float):
    """Equivalent stiffness diagonal and validity mask of the step q_k -> q_k1.

    Component i is  Σ_j 2·C_ij·(q_k1[j] - q_k[j]) / (τ·(q_k1[i] + q_k[i])),
    the position-proportional force matching the damping force at the step
    midpoint. Where |q_k1[i] + q_k[i]| falls at or below ``epsilon`` times
    the component scale the quotient is singular: the entry is zero and
    flagged invalid. Rows of (N, n) coordinate stacks give N steps. Where
    τ·(q_k1[i] + q_k[i]) underflows to 0, a valid entry is ±inf or NaN;
    this and any overflow are silent.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = q_k1 - q_k
        total = q_k1 + q_k
        scale = np.maximum(np.maximum(np.abs(q_k1), np.abs(q_k)), _FLOOR)
        valid = np.abs(total) > epsilon * scale
        diag = np.zeros_like(total)
        np.divide(2.0 * _matvec(C, delta), tau * total, out=diag, where=valid)
    return diag, valid


def _equivalent_stiffness_floats(C, q_k, q_k1, tau: float, epsilon: float):
    """``_equivalent_stiffness_arrays`` of one step as Python float lists, bit
    for bit; where Python raises ``ZeroDivisionError``, the array form's."""
    cd = (2.0 * _matvec(C, q_k1 - q_k)).tolist()
    pairs = list(zip(q_k1.tolist(), q_k.tolist()))
    valid = [abs(a + b) > epsilon * max(abs(a), abs(b), _FLOOR) for a, b in pairs]
    try:
        diag = [c / (tau * (a + b)) if ok else 0.0 for c, (a, b), ok in zip(cd, pairs, valid)]
    except ZeroDivisionError:   # numpy's ±inf or NaN
        diag = _equivalent_stiffness_arrays(C, q_k, q_k1, tau, epsilon)[0].tolist()
    return diag, valid


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
