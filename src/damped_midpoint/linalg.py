"""Dense linear algebra kernels for small real matrices.

Everything here targets desk-scale problems (matrices up to a few tens of
rows): LU factorization with partial pivoting for the implicit solves, and
a cyclic Jacobi iteration for symmetric eigenvalues. No sparse or
iterative machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularMatrixError

# Pivot cutoff relative to the largest entry of the input matrix.
PIVOT_RTOL = 1e-13

_TINY = np.finfo(float).tiny


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def rowdot(a: np.ndarray, b: np.ndarray):
    """``a @ b`` for two vectors, or that product for each pair of rows of
    two (N, m) stacks.

    A stack goes through ``np.matmul`` as (N, 1, m) @ (N, m, 1), which
    makes each item the same dot kernel one pair of vectors calls, so
    every row is bit for bit its unbatched product.
    """
    if a.ndim == 1:
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def lu_factor(a, rtol: float = PIVOT_RTOL):
    """Factor ``a`` as P·A = L·U with partial pivoting.

    ``a`` is one (m, m) matrix or a stack of N of them, (N, m, m); a single
    matrix is the N = 1 case. Every operation of the elimination acts on
    all matrices at once and is elementwise per matrix, so each factor is
    bit for bit the one the matrix gets on its own.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper
    triangles and ``perm`` is the row permutation, shaped like ``a``
    without its last axis. Raises :class:`SingularMatrixError` with the
    offending pivot magnitude when a pivot falls at or below ``rtol``-scaled
    the largest entry of its matrix; in a stack the error is the one of
    the first failing matrix, whose position it carries as ``index``.
    """
    lu = np.array(a, dtype=float)
    if lu.ndim not in (2, 3) or lu.shape[-1] != lu.shape[-2]:
        raise DimensionError(
            f"expected a square matrix or a stack of them, got shape {lu.shape}")
    m = lu.shape[-1]
    stack = lu if lu.ndim == 3 else lu[None]
    threshold = rtol * np.maximum(np.abs(stack).max(axis=(1, 2), initial=0.0), _TINY)
    perm = np.tile(np.arange(m), (len(stack), 1))
    # A matrix whose pivot fails is reported below, after its later
    # columns have divided by that pivot; those values are discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            offset = np.abs(stack[:, k:, k]).argmax(axis=1)
            if np.count_nonzero(offset):
                swap = np.flatnonzero(offset)
                piv = offset[swap] + k
                stack[swap, k], stack[swap, piv] = stack[swap, piv], stack[swap, k]
                perm[swap, k], perm[swap, piv] = perm[swap, piv], perm[swap, k]
            col = stack[:, k + 1 :, k]
            col /= stack[:, k, k, None]
            trailing = stack[:, k + 1 :, k + 1 :]
            trailing -= col[:, :, None] * stack[:, k, None, k + 1 :]
    # Row k of U is final once column k is eliminated, so its diagonal
    # holds the pivot each column met.
    pivots = np.abs(np.diagonal(stack, axis1=1, axis2=2))
    failed = pivots <= threshold[:, None]
    if np.count_nonzero(failed):
        index = int(np.flatnonzero(failed.any(axis=1))[0])
        column = int(np.argmax(failed[index]))
        error = SingularMatrixError(pivots[index, column], threshold[index])
        error.index = index
        raise error
    return lu, perm if lu.ndim == 3 else perm[0]


def lu_solve(factorization, b) -> np.ndarray:
    """Solve A·x = b given ``lu_factor`` output; ``b`` may be a vector or matrix.

    For a stacked factorization ``b`` holds one right-hand side per
    matrix, (N, m) or (N, m, r). Substitution runs row by row over the
    whole stack; each row product is one dot (vector) or vector-matrix
    product (matrix) per item, the same kernel a single solve calls.
    """
    lu, perm = factorization
    m = lu.shape[-1]
    b = np.asarray(b, dtype=float)
    if b.shape[: lu.ndim - 1] != lu.shape[:-1] or b.ndim > lu.ndim:
        raise DimensionError(
            f"right-hand side has shape {b.shape}, factorization has {lu.shape}")
    x = b[perm] if perm.ndim == 1 else b[np.arange(len(perm))[:, None], perm]
    # ``rows[k]`` is row k of every item with the item axis last: a scalar
    # or (r,) row for one matrix, an (N,) or (r, N) array for a stack.
    if b.ndim < lu.ndim:
        rows = x.T

        def product(k, lo, hi):
            return rowdot(lu[..., k, lo:hi], x[..., lo:hi])
    else:
        rows = x.T.swapaxes(0, 1)

        def product(k, lo, hi):
            return np.matmul(lu[..., k, None, lo:hi], x[..., lo:hi, :])[..., 0, :].T
    diag = lu.T
    for k in range(1, m):
        rows[k] -= product(k, 0, k)
    for k in range(m - 1, -1, -1):
        rows[k] -= product(k, k + 1, m)
        rows[k] /= diag[k, k]
    return x


def solve(a, b, rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Solve the dense system A·x = b by LU with partial pivoting.

    Parameters
    ----------
    a : (n, n) array_like
        Square, nonsingular within the pivot threshold.
    b : (n,) or (n, m) array_like
        One right-hand side, or one per column.

    Raises
    ------
    SingularMatrixError
        If elimination meets a pivot at or below ``rtol * max|a|``; the
        exception reports the pivot magnitude.
    """
    return lu_solve(lu_factor(a, rtol), b)


def jacobi_eigenvalues(a, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending.

    Sweeps rotate every off-diagonal pair per pass until the off-diagonal
    Frobenius mass falls below ``tol`` relative to the matrix norm.
    """
    a = np.array(_as_square(a), dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = float(np.sqrt(np.sum(a * a) - np.sum(a.diagonal() ** 2)))
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # entries that no longer perturb the diagonal are zeroed
                # outright; rotating on them would overflow theta
                g = 100.0 * abs(apq)
                if abs(a[p, p]) + g == abs(a[p, p]) and abs(a[q, q]) + g == abs(a[q, q]):
                    a[p, q] = a[q, p] = 0.0
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(a.diagonal())
