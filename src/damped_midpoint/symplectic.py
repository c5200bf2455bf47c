"""Symplectic-structure toolkit for small dense matrices.

Provides the canonical form J, Frobenius-norm defects measuring distance
from the symplectic group Sp(2n) and its Lie algebra sp(2n), and the
Cayley transform carrying one into the other. Membership is always decided
numerically, as a defect against an explicit tolerance.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionError

#: Defect tolerance of a matrix F with ‖F‖_F ≤ 1; a larger F is allowed
#: this times ‖F‖_F² (see :func:`scaled_verdict`).
SYMPLECTIC_TOL = 1e-10


def symplectic_form(n: int) -> np.ndarray:
    """Return the canonical 2n-by-2n form J = [[0, I], [-I, 0]].

    Entries are exactly 0, +1 and -1; the returned array is read-only. An
    n that is not an int or numpy integer (a bool, a float) is refused, not
    truncated.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"degrees of freedom must be an integer >= 1, got {n!r}")
    n = int(n)
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    j.setflags(write=False)
    return j


def _validated_pair(mat, form, stacked=False):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim not in ((2, 3) if stacked else (2,)) or mat.shape[-1] != mat.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    size = mat.shape[-1]
    if size % 2 != 0 or size == 0:
        raise DimensionError(f"expected even size 2n >= 2, got {size}")
    if form is None:
        form = symplectic_form(size // 2)
    elif np.shape(form) != (size, size):
        raise DimensionError(
            f"form has shape {np.shape(form)}, matrix has shape {mat.shape}"
        )
    return mat, np.asarray(form, dtype=float)


def frobenius_squared(d):
    """‖D‖_F² of one matrix, or of each matrix of a stack as an array.
    Each is one dot product, as ``np.linalg.norm`` takes it, and the
    products are per-matrix BLAS calls, so an item of a stack is bit for
    bit its matrix on its own."""
    flat = d.reshape(d.shape[:-2] + (-1,))
    return linalg.rowdot(flat, flat)


def _frobenius(d):
    """Frobenius norm of one matrix as a float, or of each matrix of a
    stack as an array."""
    norm = np.sqrt(frobenius_squared(d))
    return float(norm) if d.ndim == 2 else norm


def scaled_verdict(defects, norms2):
    """Verdict on a family of transition matrices F from their defects
    ‖FᵀJF - J‖_F and their ‖F‖_F².

    The round-off in FᵀJF - J grows like ε·‖F‖² (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.5), so each defect is judged
    against ``SYMPLECTIC_TOL · max(1, ‖F‖_F²)``. Returns ``(word, ratio, index)``:
    "symplectic" when every defect passes, else "unsymplectic", or
    "insufficient data" for an empty family or one with a defect that is
    not finite; the largest defect / max(1, ‖F‖_F²); and the position of
    its first occurrence (both None with insufficient data). The two
    inputs must be 1-D and of one shape.
    """
    defects, norms2 = np.asarray(defects, dtype=float), np.asarray(norms2, dtype=float)
    if defects.ndim != 1 or norms2.shape != defects.shape:
        raise DimensionError(
            f"expected defects and norms of one shape (N,), got {defects.shape} and "
            f"{norms2.shape}")
    scale = np.maximum(1.0, norms2)
    if defects.size == 0 or not np.isfinite(defects).all():
        return "insufficient data", None, None
    ratio = defects / scale
    worst = int(np.argmax(ratio))
    word = "symplectic" if np.all(defects <= SYMPLECTIC_TOL * scale) else "unsymplectic"
    return word, float(ratio[worst]), worst


def infinitesimal_symplectic_defect(b, form=None) -> float:
    """Frobenius norm of J·B + Bᵀ·J; zero iff B lies in sp(2n)."""
    b, j = _validated_pair(b, form)
    return float(np.linalg.norm(j @ b + b.T @ j))


def symplectic_defect(f, form=None):
    """Frobenius norm of Fᵀ·J·F - J; zero iff F lies in Sp(2n).

    ``f`` may also be a stack (N, 2n, 2n); the result is then an array of
    N norms, each bit for bit the float the matrix gets on its own.
    """
    f, j = _validated_pair(f, form, stacked=True)
    return _frobenius(np.matmul(f.swapaxes(-1, -2), np.matmul(j, f)) - j)


def factored_symplectic_defect(a, b, form=None):
    """Frobenius norm of A·J·Aᵀ - B·J·Bᵀ.

    A vanishing value certifies A⁻¹·B symplectic without ever forming the
    inverse, which is how the implicit-scheme transition matrices are
    classified from their factor pairs. ``a`` and ``b`` may also be stacks
    (N, 2n, 2n); the result is then an array of N norms, each bit for bit
    the float its pair gets on its own.
    """
    a, j = _validated_pair(a, form, stacked=True)
    b, _ = _validated_pair(b, j, stacked=True)
    if b.shape != a.shape:
        raise DimensionError(f"factor shapes differ: {a.shape} vs {b.shape}")
    # Factors near the float limit give an infinite or NaN defect, silently.
    with np.errstate(over="ignore", invalid="ignore"):
        return _frobenius(np.matmul(np.matmul(a, j), a.swapaxes(-1, -2))
                          - np.matmul(np.matmul(b, j), b.swapaxes(-1, -2)))


def cayley(b) -> np.ndarray:
    """Cayley transform (I - B)⁻¹ (I + B).

    Maps sp(2n) into Sp(2n) wherever I - B is nonsingular; a singular
    denominator factor raises :class:`SingularMatrixError` rather than
    returning non-finite entries.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {b.shape}")
    eye = np.eye(b.shape[0])
    return linalg.solve(eye - b, eye + b)
