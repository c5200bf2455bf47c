"""Dense linear algebra kernels for small real matrices.

Everything here targets desk-scale problems (matrices up to a few tens of
rows): LU factorization with partial pivoting for the implicit solves. No
sparse or iterative machinery.

Small single problems run on Python floats, where numpy's per-call cost
exceeds the arithmetic: the factor of one m×m matrix with 1 ≤ m ≤ 10, and
the solve of one 2×2 factorization with one vector. Elementwise float
operations (divide, multiply, subtract, abs, compare) round the same in
Python as in numpy, so these paths are bit for bit the numpy loops (up
to the sign of a NaN, which numpy itself does not fix). A BLAS dot of
length 2 or more rounds by the CPU's kernel (a fused multiply-add chain
on some, multiply then add on others), and Python has no fused
multiply-add before 3.13, so every such dot stays in numpy.

Two loops substitute. :func:`lu_solver`, prepared for many vectors,
runs on the four factor floats at m = 2, else :func:`_row_solver`'s
prepared row loop. :func:`lu_solve` runs :func:`_substitute` for every
right-hand side, one product per row over the whole stack. The
time-centered scheme's factors [[I, D], [A, I]] are factored through
their Schur block (:func:`_scheme_half`) and solved by both loops without
the rows their structure makes known, bit for bit the full loops.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, SingularMatrixError

# Pivot cutoff relative to the largest entry of the input matrix.
PIVOT_RTOL = 1e-13

_TINY = np.finfo(float).tiny

# The bits of -0.0 read as an int64.
_NEG_ZERO = np.float64(-0.0).view(np.int64)

# Largest m whose one-matrix factor runs on Python floats: the float loop
# costs O(m³) interpreted operations, the numpy loop O(m) calls, and the
# two cost about the same at m = 10 to 11.
_FLOAT_FACTOR_MAX = 10


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


def lu_factor(a):
    """Factor ``a`` as P·A = L·U with partial pivoting.

    ``a`` is one (m, m) matrix or a stack of N of them, (N, m, m). A stack
    is eliminated all at once, one matrix by a row loop over its 2-D
    array. Both do the same elementwise operations, so each factor in a
    stack is bit for bit the one its matrix gets on its own.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper
    triangles and ``perm`` is the row permutation, shaped like ``a``
    without its last axis. Raises :class:`SingularMatrixError` with the
    offending pivot magnitude when a pivot falls at or below ``PIVOT_RTOL``
    times the largest entry of its matrix; in a stack the error is the one of
    the first failing matrix, whose position it carries as ``index``.
    """
    lu = np.asarray(a, dtype=float)
    if lu.ndim not in (2, 3) or lu.shape[-1] != lu.shape[-2]:
        raise DimensionError(
            f"expected a square matrix or a stack of them, got shape {lu.shape}")
    if lu.ndim == 2:
        return _lu_factor_one(lu)
    lu = np.array(lu)
    m = lu.shape[-1]
    threshold = PIVOT_RTOL * np.maximum(np.abs(lu).max(axis=(1, 2), initial=0.0), _TINY)
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


def _lu_factor_one(a: np.ndarray):
    """``lu_factor`` of one (m, m) matrix, which it does not write: the
    stacked kernel's operations on a single item. The first pivot at or
    below the threshold raises, with the value the stacked kernel reports;
    up to the float bound, the threshold is taken on the float rows. A
    matrix that :func:`_scheme_half` admits is factored through its Schur
    block.
    """
    if 1 <= len(a) <= _FLOAT_FACTOR_MAX:
        rows = a.tolist()
        flat = [abs(v) for row in rows for v in row]
        total = sum(flat)   # NaN exactly when an entry is NaN, as numpy's max then is
        return _lu_rows(a, PIVOT_RTOL * max(max(flat) if total == total else total, _TINY), rows)
    lu = np.array(a)
    threshold = PIVOT_RTOL * np.maximum(np.abs(lu).max(initial=0.0), _TINY)
    n = _scheme_half(lu, threshold)
    if not n:
        return _lu_rows(lu, threshold)
    s, perm = _lu_rows(lu[n:, n:] - lu[n:, :n] * np.diagonal(lu[:n, n:]), threshold)
    lu[n:, :n] = lu[n:, :n][perm]
    lu[n:, n:] = s
    return lu, np.concatenate((np.arange(n), n + perm))


def _scheme_half(lu: np.ndarray, threshold) -> int:
    """n when the (2n, 2n) matrix ``lu``, 2n above the float bound, is a
    scheme factor [[I, D], [A, I]] bit for bit, with D = -(τ/2)·I and A =
    (τ/2)K + C (direct scheme) or (τ/2)(K + K̃) (substituting system):
    both I blocks and the off-diagonal of D hold +0.0, every |A| <= 1, A
    holds no -0.0, and 1 > threshold. Otherwise 0; a matrix at or below
    the float bound returns at once.

    Such a matrix factors through its n×n Schur block S = I - A·D (Golub &
    Van Loan, *Matrix Computations*, §3.2 and §3.4) bit for bit as the
    full row loop. Each of its first n columns pivots on its own row: the
    pivot is 1, no entry below it is larger, and ``argmax`` takes the
    first maximum. Every other update in those columns subtracts a ±0
    product, which leaves an entry that is not -0.0 as it was (only
    -0.0 - (-0.0) makes +0.0). The entries that change are those of the
    last block, each by one multiply and one subtract: S. The row loop
    then factors S against the whole matrix's threshold, and rows n.. of
    L are A permuted by S's pivots."""
    n = _unit_rows(lu)
    if not n or not 1.0 > threshold:
        return 0
    a = lu[n:, :n]
    if (lu[n:, n:].tobytes() != _template(n)[1]
            or not np.abs(a).max() <= 1.0 or (a.view(np.int64) == _NEG_ZERO).any()):
        return 0
    return n


@functools.cache
def _template(n: int):
    """The bytes of [I | 0], n rows of 2n, and of the n×n identity."""
    return np.eye(n, 2 * n).tobytes(), np.eye(n).tobytes()


def _unit_rows(lu: np.ndarray) -> int:
    """n when every (2n, 2n) matrix in ``lu`` (one, or a stack), 2n above
    the float bound, has rows 0..n-1 [I | diag(D)] bit for bit: the
    identity, and +0.0 off the diagonal of D. Otherwise 0. This is the
    shape of the scheme matrix's first n rows and of its factorization's."""
    m = lu.shape[-1]
    n = m // 2
    if m <= _FLOAT_FACTOR_MAX or m % 2:
        return 0
    rows = lu[..., :n, :].copy()
    # D's diagonal, entries (k, n + k), lies at n + k·(2n + 1) in a raveled item.
    rows.reshape(rows.shape[:-2] + (-1,))[..., n :: m + 1] = 0.0
    return n if rows.tobytes() == _template(n)[0] * (rows.size // (n * m)) else 0


def _lu_rows(lu: np.ndarray, threshold, rows=None):
    """The row loop of ``_lu_factor_one`` against ``threshold``: on Python
    floats (``rows``, else ``lu``'s) up to the float bound, else on numpy
    rows of ``lu``, in place, or of a copy after a float zero pivot."""
    m = len(lu)
    if 1 <= m <= _FLOAT_FACTOR_MAX:
        try:
            return _lu_factor_floats(lu.tolist() if rows is None else rows, threshold)
        except ZeroDivisionError:
            lu = np.array(lu)
    perm = np.arange(m)
    # A NaN entry makes the pivot test pass; as in a stack, what follows is silent.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            piv = k + int(np.abs(lu[k:, k]).argmax())
            if piv != k:
                row = lu[k].copy()
                lu[k] = lu[piv]
                lu[piv] = row
                perm[k], perm[piv] = perm[piv], perm[k]
            pivot = abs(lu[k, k])
            if pivot <= threshold:
                raise SingularMatrixError(pivot, threshold)
            col = lu[k + 1 :, k]
            col /= lu[k, k]
            lu[k + 1 :, k + 1 :] -= col[:, None] * lu[k, k + 1 :]
    return lu, perm


def _lu_factor_floats(rows: list, threshold):
    """The row loop of ``_lu_rows`` on a list of float rows.

    The pivot is the first maximal |·| of the column, or its first NaN,
    as ``argmax`` picks it. Only the sign of a NaN made from two NaN
    factors can differ from numpy's, whose multiply picks it by whether
    the element falls in a vector loop or its scalar remainder. Python
    raises ``ZeroDivisionError`` where numpy divides by a zero pivot,
    which passes the test only against a NaN threshold; the caller then
    reruns the numpy loop for its values.
    """
    m = len(rows)
    limit = float(threshold)
    perm = list(range(m))
    for k in range(m):
        piv, best = k, abs(rows[k][k])
        if best == best:
            for i in range(k + 1, m):
                v = abs(rows[i][k])
                if v > best:
                    piv, best = i, v
                elif v != v:
                    piv = i
                    break
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            perm[k], perm[piv] = perm[piv], perm[k]
        u = rows[k]
        pivot = abs(u[k])
        if pivot <= limit:
            raise SingularMatrixError(pivot, threshold)
        d = u[k]
        tail = u[k + 1 :]
        for r in rows[k + 1 :]:
            c = r[k] = r[k] / d
            r[k + 1 :] = [x - c * y for x, y in zip(r[k + 1 :], tail)]
    return np.array(rows), np.array(perm)


def lu_solve(factorization, b) -> np.ndarray:
    """Solve A·x = b given ``lu_factor`` output; ``b`` may be a vector or matrix.

    For a stacked factorization ``b`` holds one right-hand side per
    matrix, (N, m) or (N, m, r). Every ``b`` runs :func:`_substitute`'s
    row loop over the whole stack, vectors as (m, 1) columns; each row
    product is one vector-matrix product per item, the same kernel a
    single solve calls. Factorizations whose first n rows are [I | diag(D)]
    skip the rows known in advance, all items of a stack or none.
    """
    lu, perm = factorization
    if perm.ndim not in (1, 2) or lu.shape != perm.shape + perm.shape[-1:]:
        raise DimensionError(f"expected one factorization, got lu of shape {lu.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape[: lu.ndim - 1] != lu.shape[:-1] or b.ndim > lu.ndim:
        raise DimensionError(
            f"right-hand side has shape {b.shape}, factorization has {lu.shape}")
    vectors = b.ndim < lu.ndim
    if vectors:
        b = b[..., None]
    half = _unit_rows(lu)
    x = _substitute(lu, perm, b, half)
    if half and not np.isfinite(x).all():
        x = _substitute(lu, perm, b, 0)
    return x[..., 0] if vectors else x


def _substitute(lu: np.ndarray, perm: np.ndarray, b: np.ndarray, half: int):
    """``lu_solve``'s row loop for matrix right-hand sides: (m, r) for one
    factorization, (N, m, r) for a stack.

    With ``half`` = n, every factorization's rows 0..n-1 are [I | diag(D)]
    (:func:`_unit_rows`), as a scheme factor's are: forward rows 1..n-1
    are dots of +0.0 rows, which leave x as it is, and back rows n-1..0
    each hold one nonzero product over a unit pivot, 0.0 + d·x[n + k], so
    all n are one elementwise update. For finite x these are the bits of
    every product the substitution loops call (``ndarray.dot``, ``@`` and
    stacked ``np.matmul``) under the SkylakeX, Haswell and Sandybridge
    OpenBLAS kernels, which the tests check on each. A skipped dot with
    an infinite x would be NaN, not ±0, so the caller reruns with
    ``half`` = 0 when x is not finite.
    """
    m = lu.shape[-1]
    x = b[perm] if perm.ndim == 1 else b[np.arange(len(perm))[:, None], perm]
    # ``rows[k]`` is row k of every item with the item axis last: an (r,)
    # row for one matrix, an (r, N) array for a stack.
    rows = x.T.swapaxes(0, 1)
    diag = lu.T

    def product(k, lo, hi):
        return np.matmul(lu[..., k, None, lo:hi], x[..., lo:hi, :])[..., 0, :].T
    for k in range(max(half, 1), m):
        rows[k] -= product(k, 0, k)
    for k in range(m - 1, half - 1, -1):
        rows[k] -= product(k, k + 1, m)
        rows[k] /= diag[k, k]
    if half:
        d = diag[half + np.arange(half), np.arange(half)]
        rows[:half] -= 0.0 + d[:, None] * rows[half:]
    return x


def lu_solver(factorization, left=None):
    """``lu_solve`` of one (m, m) factorization, prepared once for many
    float vectors b of length m: ``lu_solve(f, b)`` is ``lu_solver(f)(b)``.
    ``lu_solver(f)(b, out)`` writes that x into ``out``, a float64 array
    of shape (m,) that may be b, and returns it; nothing else is written.
    With a left factor N, ``lu_solver(f, N)(z, out)`` is
    ``lu_solver(f)(N.dot(z), out)`` bit for bit; ``out`` must not be z.
    An N that is not an (m, m) array is refused here, once.

    At m = 2 both substitution products have one element and run on the
    four factor floats as ``0.0 + a * b`` (``@`` of one-element vectors
    turns a -0.0 product into +0.0). A zero pivot, which only a NaN
    threshold lets through, raises ``ZeroDivisionError`` in Python; that
    solve falls back to the row loop for numpy's inf or NaN. Above the
    float bound, a factorization whose first n rows are [I | diag(D)]
    is checked for that shape once, here. Without a left factor, b is
    taken as ``np.asarray(b, dtype=float)``, which must have shape (m,).
    """
    lu, perm = factorization
    m = len(perm)
    if lu.shape != (m, m):
        raise DimensionError(f"expected one factorization, got lu of shape {lu.shape}")
    if left is not None and not (isinstance(left, np.ndarray) and left.shape == (m, m)):
        raise DimensionError(f"left factor has shape {np.shape(left)}, factorization has "
                             f"{lu.shape}")
    if m != 2:
        solve = _row_solver(lu, perm, _unit_rows(lu), left)
    else:
        (u00, u01), (l10, u11) = lu.tolist()
        p0, p1 = perm.tolist()

        def solve(b, out=None):
            rhs = (b if left is None else left.dot(b, out)).tolist()
            try:
                x1 = (rhs[p1] - (0.0 + l10 * rhs[p0])) / u11
                x0 = (rhs[p0] - (0.0 + u01 * x1)) / u00
            except ZeroDivisionError:
                return _row_solver(lu, perm, 0, left)(b, out)
            out = np.empty(2) if out is None else out
            out[0], out[1] = x0, x1
            return out
    if left is not None:
        return solve

    def checked(b, out=None):
        b = np.asarray(b, dtype=float)
        if b.shape != (m,):
            raise DimensionError(
                f"right-hand side has shape {b.shape}, factorization has {lu.shape}")
        return solve(b, out)
    return checked


def _row_solver(lu: np.ndarray, perm: np.ndarray, half: int = 0, left=None):
    """``lu_solver``'s row loop, with the pivots as Python floats and each
    row's product taken once. Rows of two or more elements call the bound
    ``ndarray.dot`` of their view, cheaper per call than ``@`` and the
    same BLAS dot as a stack's rows. The one-element rows, forward row 1
    and back row m - 2, are ``0.0 + a * x`` on floats, as ``@`` rounds
    them (``.dot`` would keep a -0.0 product). The last row's empty
    product is skipped (x - 0.0 is x). Each quotient's dividend is a
    numpy scalar, so a zero pivot divides as numpy does.

    ``half`` = n skips rows 0..n-1 as :func:`_substitute` does. A result
    that is not finite (its dot with zeros is NaN, not ±0) is solved
    again by the full loop. A ``left`` factor N starts from N.dot(b)."""
    m = len(perm)
    pivots = np.diagonal(lu).tolist()
    forward = [(k, lu[k, :k].dot) for k in range(max(half, 2), m)]
    back = [(k, lu[k, k + 1 :].dot, pivots[k]) for k in range(m - 3, half - 1, -1)]
    # half is 0 or n ≥ 6 with m = 2n, so back row m - 2 is never skipped.
    first = lu.item(1, 0) if m > 1 and not half else None
    second = lu.item(-2, -1) if m > 1 else None
    if half:
        d, zeros = np.diagonal(lu[:half, half:]), np.zeros(m)

    def solve(b, out=None):
        x = (b if left is None else left.dot(b))[perm]
        if first is not None:
            x[1] -= 0.0 + first * x.item(0)
        for k, product in forward:
            x[k] -= product(x[:k])
        if m:
            x[-1] /= pivots[-1]
        if second is not None:
            x[-2] = (x[-2] - (0.0 + second * x.item(-1))) / pivots[-2]
        for k, product, pivot in back:
            x[k] = (x[k] - product(x[k + 1 :])) / pivot
        if half:
            x[:half] -= 0.0 + d * x[half:]
            if zeros.dot(x):
                return _row_solver(lu, perm, 0, left)(b, out)
        if out is None:
            return x
        out[...] = x
        return out
    return solve


def solve(a, b) -> np.ndarray:
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
        If elimination meets a pivot at or below ``PIVOT_RTOL * max|a|``; the
        exception reports the pivot magnitude.
    """
    return lu_solve(lu_factor(a), b)
