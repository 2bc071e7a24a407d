"""Dense two-phase primal simplex for equality-form linear programs.

Solves ``min c'x  s.t.  A x = b, x >= 0`` with Bland's anti-cycling rule and
a Phase-1 auxiliary problem, so the pivot sequence (and hence the returned
basis, duals and reduced costs) is fully deterministic. Dimensions here are
desk-scale; a dense tableau is the simplest correct tool. A pivot updates
only the rows with a nonzero pivot-column entry, and phase 2 runs without
the artificial columns; the results are those of the plain dense update on
the full tableau, bit for bit.
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
    """Pivot on ``tab[row, col]``, subtracting the scaled pivot row only from
    the rows whose pivot-column entry is nonzero.

    A dense update ``tab -= outer(factors, pivot row)`` leaves a skipped row
    unchanged, except that it turns some -0.0 entries into +0.0. A signed
    zero only ever yields signed zeros and sign-blind comparisons, and
    :func:`solve_lp` clips ``x`` at +0.0, so every result is the same bit
    for bit.
    """
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    tab[rows] -= factors[rows, None] * pivot_row
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
    rhs = tab[:m, -1]
    for it in range(max_iter):
        # Bland: the first improving column enters
        improving = tab[-1, :allowed] < -PIVOT_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
            return it
        col = tab[:m, entering]
        positive = col > PIVOT_TOL
        ratios = np.divide(rhs, col, out=np.full(m, np.inf), where=positive)
        best = ratios.min()
        if not np.isfinite(best):
            raise Unbounded(f"unbounded direction along variable {entering}")
        # Bland: among minimal ratios, leave the smallest basis index
        candidates = (ratios <= best + PIVOT_TOL * (1.0 + abs(best))).nonzero()[0]
        leaving = int(candidates[basis[candidates].argmin()])
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

    # Phase 2 bars the artificial columns from entering, so drop them now:
    # row operations act on each column separately, which leaves the other
    # columns bit for bit as the full tableau would hold them
    tab = tab[:, np.r_[:n, n + m]]
    # drive remaining artificials out of the basis; a zero row is redundant
    keep = basis < n
    for i in np.flatnonzero(~keep):
        row = tab[i, :n]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_TOL:
            _pivot(tab, basis, i, j)
            keep[i] = True
    tab = tab[np.append(np.flatnonzero(keep), m)]
    basis = basis[keep]
    m_eff = len(basis)

    # Phase 2: original objective
    tab[-1, :n] = c
    tab[-1, -1] = 0.0
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
        basis=basis,
        duals=duals,
        reduced_costs=reduced,
        iterations=iters,
    )
