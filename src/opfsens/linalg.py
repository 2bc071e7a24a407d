"""Dense linear algebra kernel in numpy: batched pivoted factorization and
solves, numerical rank.

Matrices are plain ``numpy.ndarray`` (row-major, float64). Factorization and
solves take a single matrix or a stack ``(..., n, n)`` of them and run as one
sequence of whole-stack numpy operations, ``n`` column steps with no call per
matrix. The independence tolerance is fixed project-wide at
:data:`RANK_REL_TOL`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, Singular

# Project-wide relative tolerance for rank / independence decisions.
RANK_REL_TOL = 1e-10


def lu_factor_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU-factor a square matrix, or a stack ``(..., n, n)`` of them, with
    partial pivoting, and apply the project's one independence test.

    A matrix is dependent when its smallest pivot magnitude is at most
    :data:`RANK_REL_TOL` times the larger of 1 and its largest pivot (an
    exact zero pivot included); the empty ``0 x 0`` matrix is independent.
    The floor of 1 fits the matrices the package factors, ``S N`` of
    :mod:`~opfsens.jacobian`: dimensionless, with entries of magnitude at
    most 1, so a matrix whose rows are all rounding noise is dependent
    rather than well scaled. Returns ``(lu, piv, independent)``: the
    unit-lower and upper factors packed in one array, the row swapped with
    row ``j`` at step ``j``, and the verdict of each matrix in the stack.
    Each matrix is factored exactly as it would be alone; the factors of a
    dependent one are not for solving. A single dependent matrix raises
    :class:`Singular`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    lu = a.reshape(math.prod(a.shape[:-2]), n, n).copy()
    piv = np.empty(lu.shape[:2], dtype=np.intp)
    at = np.arange(len(lu))
    # an exact zero pivot divides zeros by zero: the NaN multipliers that
    # follow only reach matrices the test rejects anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n - 1):
            p = j + np.abs(lu[:, j:, j]).argmax(axis=1)
            piv[:, j] = p
            row = lu[at, p]
            lu[at, p] = lu[:, j]
            lu[:, j] = row
            below = lu[:, j + 1 :, j]
            below /= row[:, j, None]
            lu[:, j + 1 :, j + 1 :] -= below[:, :, None] * row[:, None, j + 1 :]
    piv[:, n - 1 :] = n - 1
    pivots = np.abs(lu.diagonal(axis1=1, axis2=2))
    scale = np.maximum(pivots.max(axis=1, initial=0.0), 1.0)
    independent = pivots.min(axis=1, initial=np.inf) > RANK_REL_TOL * scale
    if a.ndim == 2 and not independent[0]:
        raise Singular(
            f"pivot {np.nanmin(pivots):.3e} at most {RANK_REL_TOL:g} x the larger of 1 "
            f"and the largest pivot {np.nanmax(pivots):.3e}"
        )
    return lu.reshape(a.shape), piv.reshape(a.shape[:-1]), independent.reshape(a.shape[:-2])


def lu_solve_factored(factors: tuple[np.ndarray, ...], rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`lu_factor_checked`, one right-hand side
    (a vector or a matrix of columns) for every factored matrix."""
    lu, piv = factors[:2]
    rhs = np.asarray(rhs, dtype=float)
    n = lu.shape[-1]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs has shape {rhs.shape}, matrix has {n} rows")
    batch = lu.shape[:-2]
    count = math.prod(batch)
    b = rhs[:, None] if rhs.ndim == 1 else rhs
    x = np.broadcast_to(b, (count,) + b.shape).copy()
    lu, piv = lu.reshape(count, n, n), piv.reshape(count, n)
    at = np.arange(count)
    for j in range(n):
        p = piv[:, j]
        row = x[at, p]
        x[at, p] = x[:, j]
        x[:, j] = row
    for j in range(n):
        x[:, j + 1 :] -= lu[:, j + 1 :, j, None] * x[:, j, None]
    for j in reversed(range(n)):
        x[:, j] /= lu[:, j, j, None]
        x[:, :j] -= lu[:, :j, j, None] * x[:, j, None]
    return x.reshape(batch + rhs.shape)


def numerical_rank(a: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Numerical rank by row echelon reduction with partial pivoting.

    The rank is the number of pivots whose magnitude exceeds
    ``rel_tol * largest pivot``. An empty matrix has rank 0.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
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
    return int(sum(p > rel_tol * largest for p in pivots))


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
