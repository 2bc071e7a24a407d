"""Dense linear algebra kernel: pivoted factorization, solves, numerical rank.

Matrices are plain ``numpy.ndarray`` (row-major, float64). The independence
tolerance is fixed project-wide at :data:`RANK_REL_TOL`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import DimensionMismatch, Singular

# Project-wide relative tolerance for rank / independence decisions.
RANK_REL_TOL = 1e-10

_getrf, _getrs = sla.get_lapack_funcs(("getrf", "getrs"), (np.empty(0),))


def lu_factor_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU-factor a square matrix, or a stack ``(..., n, n)`` of them, with
    partial pivoting, and apply the project's one independence test.

    A matrix is dependent when its smallest pivot magnitude is at most
    :data:`RANK_REL_TOL` times its largest (an exact zero pivot included).
    Returns ``(lu, piv, independent)``, ``independent`` holding the verdict of
    each matrix in the stack. A single dependent matrix raises
    :class:`Singular`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise DimensionMismatch("empty matrix")
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    lu = np.empty_like(flat)
    piv = np.empty(flat.shape[:2], dtype=np.int32)
    for k, m in enumerate(flat):
        lu[k], piv[k], info = _getrf(m)
        if info < 0:
            raise ValueError(f"getrf: bad argument {-info}")
    pivots = np.abs(np.diagonal(lu, axis1=1, axis2=2))
    independent = pivots.min(axis=1) > RANK_REL_TOL * pivots.max(axis=1)
    if a.ndim == 2 and not independent[0]:
        raise Singular(
            f"pivot {pivots.min():.3e} at most {RANK_REL_TOL:g} x largest {pivots.max():.3e}"
        )
    return lu.reshape(a.shape), piv.reshape(a.shape[:-1]), independent.reshape(a.shape[:-2])


def lu_solve_factored(factors: tuple[np.ndarray, ...], rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`lu_factor_checked`, one right-hand side
    (a vector or a matrix of columns) for every factored matrix."""
    lu, piv = factors[:2]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != lu.shape[-1]:
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows, matrix has {lu.shape[-1]}")
    n = lu.shape[-1]
    flat_lu, flat_piv = lu.reshape(-1, n, n), piv.reshape(-1, n)
    out = np.empty((len(flat_lu),) + rhs.shape)
    for k in range(len(flat_lu)):
        out[k], info = _getrs(flat_lu[k], flat_piv[k], rhs)
        if info != 0:
            raise ValueError(f"getrs: bad argument {-info}")
    return out.reshape(lu.shape[:-2] + rhs.shape)


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
