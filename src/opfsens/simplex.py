"""Dense two-phase primal simplex for equality-form linear programs.

Solves ``min c'x  s.t.  A x = b, x >= 0`` with Bland's anti-cycling rule and
a Phase-1 auxiliary problem, so the pivot sequence (and hence the returned
basis, duals and reduced costs) is fully deterministic. Dimensions here are
desk-scale; a dense tableau is the simplest correct tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NumericalFailure, Unbounded

#: reduced costs and pivot-column entries within this of zero count as zero
PIVOT_TOL = 1e-9
#: largest infeasibility (phase-1 optimum, negative basic value) accepted as zero
FEAS_TOL = 1e-8


@dataclass(frozen=True)
class LpSolution:
    """Optimal basic solution of an equality-form LP."""

    x: np.ndarray
    objective: float
    basis: np.ndarray          # row -> variable index
    duals: np.ndarray          # y with A' y + reduced_costs = c
    reduced_costs: np.ndarray
    iterations: int


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _run_simplex(
    tab: np.ndarray,
    basis: np.ndarray,
    allowed: int,
    max_iter: int,
) -> int:
    """Bland's rule iterations on a tableau whose last row is the objective.

    ``allowed`` bounds the variable indices permitted to enter the basis.
    Returns the iteration count; raises :class:`Unbounded` when a pivot
    column has no positive entry.
    """
    m = tab.shape[0] - 1
    for it in range(max_iter):
        rc = tab[-1, :allowed]
        entering = -1
        for j in range(allowed):
            if rc[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return it
        col = tab[:m, entering]
        ratios = np.full(m, np.inf)
        positive = col > PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / col[positive]
        best = ratios.min()
        if not np.isfinite(best):
            raise Unbounded(f"unbounded direction along variable {entering}")
        # Bland: among minimal ratios, leave the smallest basis index
        candidates = np.flatnonzero(ratios <= best + PIVOT_TOL * (1.0 + abs(best)))
        leaving = int(min(candidates, key=lambda r: basis[r]))
        _pivot(tab, basis, leaving, entering)
    raise NumericalFailure(f"simplex did not terminate in {max_iter} iterations")


def solve_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """Minimize ``c'x`` over ``a x = b, x >= 0``.

    Raises :class:`Infeasible` or :class:`Unbounded` accordingly, and
    :class:`NumericalFailure` if the pivot sequence stalls.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = a.shape

    # orient rows so the artificial basis is feasible
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.abs(b)

    max_iter = 2000 + 200 * (m + n)

    # Phase 1: artificials with unit cost
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = np.arange(n, n + m)
    tab[-1, n : n + m] = 1.0
    tab[-1] -= tab[:m].sum(axis=0)  # reduce objective over the artificial basis

    iters = _run_simplex(tab, basis, n + m, max_iter)
    if tab[-1, -1] < -FEAS_TOL:
        raise Infeasible(f"phase-1 optimum {-tab[-1, -1]:.3e} > 0")

    # drive remaining artificials out of the basis; a zero row is redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            row = tab[i, :n]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > PIVOT_TOL:
                _pivot(tab, basis, i, j)
            else:
                keep[i] = False
    if not keep.all():
        rows = np.flatnonzero(~keep)
        tab = np.delete(tab, rows, axis=0)
        basis = np.delete(basis, rows)
        m_eff = len(basis)
    else:
        m_eff = m

    # Phase 2: original objective, artificial columns barred from entering
    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for i in range(m_eff):
        if tab[-1, basis[i]] != 0.0:
            tab[-1] -= tab[-1, basis[i]] * tab[i]
    iters += _run_simplex(tab, basis, n, max_iter)

    x = np.zeros(n)
    x[basis] = tab[:m_eff, -1]
    if (x < -FEAS_TOL).any():
        raise NumericalFailure(f"negative basic value {x.min():.3e}")
    np.clip(x, 0.0, None, out=x)

    # duals from the final basis: B' y = c_B, on the kept (independent) rows
    a_kept = a[keep] if not keep.all() else a
    b_cols = a_kept[:, basis]
    try:
        y_kept = np.linalg.solve(b_cols.T, c[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("singular final basis") from exc
    duals = np.zeros(m)
    duals[keep] = y_kept
    duals[flip] = -duals[flip]  # undo row orientation
    reduced = c - a_kept.T @ y_kept
    reduced[np.abs(reduced) < 1e-13] = 0.0

    return LpSolution(
        x=x,
        objective=float(c @ x),
        basis=basis.copy(),
        duals=duals,
        reduced_costs=reduced,
        iterations=iters,
    )
