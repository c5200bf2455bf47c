"""Dense linear algebra kernels for small real matrices.

Everything here targets desk-scale problems (matrices up to a few tens of
rows): LU factorization with partial pivoting for the implicit solves. No
sparse or iterative machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularMatrixError

# Pivot cutoff relative to the largest entry of the input matrix.
PIVOT_RTOL = 1e-13

_TINY = np.finfo(float).tiny


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

    ``a`` is one (m, m) matrix or a stack of N of them, (N, m, m). A stack
    is eliminated all at once, one matrix by a row loop over its 2-D
    array. Both do the same elementwise operations, so each factor in a
    stack is bit for bit the one its matrix gets on its own.

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
    if lu.ndim == 2:
        return _lu_factor_one(lu, rtol)
    m = lu.shape[-1]
    threshold = rtol * np.maximum(np.abs(lu).max(axis=(1, 2), initial=0.0), _TINY)
    perm = np.tile(np.arange(m), (len(lu), 1))
    # A matrix whose pivot fails is reported below, after its later
    # columns have divided by that pivot; those values are discarded.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            offset = np.abs(lu[:, k:, k]).argmax(axis=1)
            if np.count_nonzero(offset):
                swap = np.flatnonzero(offset)
                piv = offset[swap] + k
                lu[swap, k], lu[swap, piv] = lu[swap, piv], lu[swap, k]
                perm[swap, k], perm[swap, piv] = perm[swap, piv], perm[swap, k]
            col = lu[:, k + 1 :, k]
            col /= lu[:, k, k, None]
            trailing = lu[:, k + 1 :, k + 1 :]
            trailing -= col[:, :, None] * lu[:, k, None, k + 1 :]
    # Row k of U is final once column k is eliminated, so its diagonal
    # holds the pivot each column met.
    pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2))
    failed = pivots <= threshold[:, None]
    if np.count_nonzero(failed):
        index = int(np.flatnonzero(failed.any(axis=1))[0])
        column = int(np.argmax(failed[index]))
        error = SingularMatrixError(pivots[index, column], threshold[index])
        error.index = index
        raise error
    return lu, perm


def _lu_factor_one(lu: np.ndarray, rtol: float):
    """``lu_factor`` of one (m, m) matrix, in place: the stacked kernel's
    operations on a single item. The first pivot at or below the
    threshold raises, with the value the stacked kernel reports."""
    m = len(lu)
    threshold = rtol * np.maximum(np.abs(lu).max(initial=0.0), _TINY)
    perm = np.arange(m)
    # A NaN entry makes the pivot test pass; as in a stack, what follows is silent.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            piv = k + int(np.abs(lu[k:, k]).argmax())
            if piv != k:
                lu[[k, piv]] = lu[[piv, k]]
                perm[[k, piv]] = perm[[piv, k]]
            pivot = abs(lu[k, k])
            if pivot <= threshold:
                raise SingularMatrixError(pivot, threshold)
            col = lu[k + 1 :, k]
            col /= lu[k, k]
            lu[k + 1 :, k + 1 :] -= col[:, None] * lu[k, k + 1 :]
    return lu, perm


def lu_solve(factorization, b) -> np.ndarray:
    """Solve A·x = b given ``lu_factor`` output; ``b`` may be a vector or matrix.

    For a stacked factorization ``b`` holds one right-hand side per
    matrix, (N, m) or (N, m, r). Substitution runs row by row over the
    whole stack; each row product is one dot (vector) or vector-matrix
    product (matrix) per item, the same kernel a single solve calls. One
    matrix with one vector takes a plain row loop of the same products.
    """
    lu, perm = factorization
    m = lu.shape[-1]
    b = np.asarray(b, dtype=float)
    if b.shape[: lu.ndim - 1] != lu.shape[:-1] or b.ndim > lu.ndim:
        raise DimensionError(
            f"right-hand side has shape {b.shape}, factorization has {lu.shape}")
    if b.ndim == 1:
        return _lu_solve_vector(lu, perm, b)
    x = b[perm] if perm.ndim == 1 else b[np.arange(len(perm))[:, None], perm]
    # ``rows[k]`` is row k of every item with the item axis last: an (r,)
    # row for one matrix, an (N,) or (r, N) array for a stack.
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


def _lu_solve_vector(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``lu_solve`` of one factorization and one vector, row by row. The
    last row's empty product is skipped: x - 0.0 is bitwise x. Rows use
    ``@``, the kernel of a stack's rows: ``np.dot`` of one-element rows
    keeps a product's -0.0, where ``@`` returns +0.0."""
    m = len(perm)
    x = b[perm]
    for k in range(1, m):
        x[k] -= lu[k, :k] @ x[:k]
    if m:
        x[-1] /= lu[-1, -1]
    for k in range(m - 2, -1, -1):
        x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
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
