"""Dense linear algebra kernel in numpy: batched pivoted factorization and
solves, numerical rank.

Factorization and solves take one batch-last stack, ``(n, n, count)``
matrices and ``(n, m, count)`` right-hand sides, and run as one sequence of
whole-stack numpy operations, ``n`` column steps with no call per matrix;
each step reads and writes contiguous rows of every matrix at once. The
factorization returns each matrix's row order, and a solve takes its
right-hand sides already in that order: the caller gathers them, or the
index it gathers them with, through it. The independence tolerance is fixed
project-wide at :data:`RANK_REL_TOL`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Project-wide relative tolerance for rank / independence decisions.
RANK_REL_TOL = 1e-10


def _swap_rows(w: np.ndarray, j: int, at: np.ndarray) -> np.ndarray:
    """Swap row ``j`` of each matrix of the C-ordered stack ``w`` with the
    row at flat offsets ``at``, which are ``p * w[0].size`` plus the offsets
    of row 0 for the rows ``p`` swapped in; returns the row swapped in."""
    flat = w.reshape(-1)
    row = flat[at]
    flat[at] = w[j]
    w[j] = row
    return row


def lu_factor_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU-factor a stack ``(n, n, count)`` of square matrices with partial
    pivoting, and apply the project's one independence test.

    A matrix is dependent when its smallest pivot magnitude is at most
    :data:`RANK_REL_TOL` times the larger of 1 and its largest pivot (an
    exact zero pivot included); the empty ``0 x 0`` matrix is independent.
    The floor of 1 fits the matrices the package factors, the reduced
    blocks of :mod:`~opfsens.jacobian`: dimensionless, with entries transfer
    PTDFs of magnitude at most 1, so a block whose rows are all rounding
    noise is dependent rather than well scaled. It also makes padding
    neutral: a block padded with unit rows on the diagonal gains pivots of
    exactly 1, which move neither the floored scale nor the verdict; that
    would take a block whose smallest pivot exceeds 1 and whose largest
    exceeds ``1 / RANK_REL_TOL``, and partial pivoting grows entries of
    magnitude 1 at most ``2^(n - 1)``-fold. Returns ``(lu, order,
    independent)``: the unit-lower and upper factors packed in one
    C-ordered ``(n, n, count)`` array, the row order, ``order[i, s]`` the
    input row at pivot position ``i`` of matrix ``s``, ``(n, count)``, and
    the verdict of each matrix, ``(count,)``. Each matrix is factored
    exactly as it would be alone; the factors of a dependent one are not
    for solving.
    """
    # a C-ordered copy: row swaps go through flat offsets of w
    w = np.array(a, dtype=float, order="C")
    if w.ndim != 3 or w.shape[0] != w.shape[1]:
        raise DimensionMismatch(f"expected a stack (n, n, count), got shape {w.shape}")
    n, _, count = w.shape
    cells = np.arange(n * count).reshape(n, count)
    order = np.arange(n, dtype=np.intp)[:, None].repeat(count, axis=1)
    # an exact zero pivot divides zeros by zero: the NaN multipliers that
    # follow only reach matrices the test rejects anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n - 1):
            p = np.abs(w[j:, j]).argmax(axis=0) + j
            row = _swap_rows(w, j, p * (n * count) + cells)
            _swap_rows(order, j, p * count + cells[0])
            below = w[j + 1 :, j]
            below /= row[j]
            rest = w[j + 1 :, j + 1 :]
            rest -= below[:, None] * row[j + 1 :]
    pivots = np.abs(w.diagonal().T)
    scale = pivots.max(axis=0, initial=1.0)
    independent = pivots.min(axis=0, initial=np.inf) > RANK_REL_TOL * scale
    return w, order, independent


def lu_solve_factored(lu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve in place with the factors ``lu`` of :func:`lu_factor_checked`.

    ``x`` holds one right-hand side per factored matrix, batch-last ``(n,
    m, count)``, its rows already in pivot order: row ``i`` of matrix ``s``
    holds input row ``order[i, s]`` (:func:`lu_factor_checked`), as
    ``np.take_along_axis`` over axis 0 gathers it. It is overwritten with
    the solution and returned. Each column of the solution is computed on
    its own, so solving a subset of columns gives those columns bit for bit.
    """
    n, _, count = lu.shape
    if x.ndim != 3 or (x.shape[0], x.shape[2]) != (n, count) or x.dtype != float:
        raise DimensionMismatch(f"rhs has shape {x.shape} and dtype {x.dtype}, "
                                f"factors have {lu.shape}")
    for j in range(n - 1):
        rest = x[j + 1 :]
        rest -= lu[j + 1 :, j, None] * x[j]
    for j in reversed(range(n)):
        xj = x[j]
        xj /= lu[j, j]
        if j:
            head = x[:j]
            head -= lu[:j, j, None] * xj
    return x


def numerical_rank(a: np.ndarray) -> int:
    """Numerical rank by row echelon reduction with partial pivoting.

    The rank counts the pivots larger than :data:`RANK_REL_TOL` (fixed; no
    call overrides it) times the largest one. An empty matrix has rank 0.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if m == 0 or n == 0:
        return 0

    pivots: list[float] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        sub = np.abs(a[row:, col])
        k = int(np.argmax(sub))
        pivot = sub[k]
        if pivot == 0.0:
            continue
        if k != 0:
            a[[row, row + k]] = a[[row + k, row]]
        below = a[row + 1 :, col] / a[row, col]
        a[row + 1 :, :] -= np.outer(below, a[row, :])
        pivots.append(pivot)
        row += 1

    if not pivots:
        return 0
    largest = max(pivots)
    return int(sum(p > RANK_REL_TOL * largest for p in pivots))


def rcond_estimate(a: np.ndarray) -> float:
    """Reciprocal condition number in the 1-norm (0.0 when singular)."""
    a = np.asarray(a, dtype=float)
    try:
        cond = np.linalg.cond(a, 1)
    except np.linalg.LinAlgError:
        return 0.0
    if not np.isfinite(cond) or cond == 0.0:
        return 0.0
    return 1.0 / cond
