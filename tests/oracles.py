"""Reference computations the tests check the package against, kept apart
from the package: the doubled-inequality standard form of the dispatch LP,
the candidate order built with ``itertools``, graph components from
``scipy.sparse.csgraph``, dead branches from every simple path between
generators, and the full
``n_bus x n_bus`` constraint stack with the independence test and Jacobian
that the package's reduced kernel replaces, the row-major stacked LU, the
reduced block of each set solved one set at a time that the package's
batch-last kernel must reproduce bit for bit, the earlier ``k x k``
``S N`` pipeline it must agree with, the tie rule applied one record at a
time, and the dense-tableau simplex whose results the package's LP must
reproduce byte for byte."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from opfsens import linalg
from opfsens.dcopf import check_load
from opfsens.errors import DimensionMismatch
from opfsens.jacobian import BindingSet
from opfsens.linalg import RANK_REL_TOL
from opfsens.errors import Infeasible, NumericalFailure, Unbounded
from opfsens.network import Network, OpfParams
from opfsens.simplex import FEAS_TOL, PIVOT_TOL, LpSolution


@dataclass(frozen=True)
class StandardFormLp:
    """All-inequality form ``A x <= b`` with ``x = [s_g; theta]``.

    Each equality appears as two opposite-sign rows. This form is the
    reference the independence test is checked against. ``row_tags`` names
    every row: ``slack+|slack-``, ``balance+(v)|balance-(v)``,
    ``gen-upper(i)`` / ``gen-lower(i)``, ``flow-upper(e)`` / ``flow-lower(e)``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    row_tags: tuple[str, ...]


def standard_form(net: Network, params: OpfParams, load: np.ndarray) -> StandardFormLp:
    """Assemble the doubled-inequality standard form of the dispatch LP."""
    load = check_load(net, load)
    params.validate(net)
    n, n_g, m = net.n_bus, net.n_gen, net.n_edge
    if net.n_load == 0:
        raise DimensionMismatch("network has no load buses")

    lap = net.laplacian
    bct = net.flow_matrix
    w = np.zeros((n, n_g))
    w[:n_g, :] = np.eye(n_g)
    y = np.concatenate([np.zeros(n_g), -load])

    e1 = np.zeros(n)
    e1[0] = 1.0
    zeros_g = np.zeros(n_g)

    rows = [
        np.concatenate([zeros_g, e1])[None, :],
        -np.concatenate([zeros_g, e1])[None, :],
        np.hstack([-w, lap]),
        np.hstack([w, -lap]),
        np.hstack([np.eye(n_g), np.zeros((n_g, n))]),
        np.hstack([-np.eye(n_g), np.zeros((n_g, n))]),
        np.hstack([np.zeros((m, n_g)), bct]),
        np.hstack([np.zeros((m, n_g)), -bct]),
    ]
    a = np.vstack(rows)
    b = np.concatenate([
        [0.0, 0.0], y, -y,
        params.gen_upper, -params.gen_lower,
        params.flow_upper, -params.flow_lower,
    ])
    c = np.concatenate([params.cost, np.zeros(n)])

    labels = [str(v) for v in net.vertex_order]
    tags = (
        ["slack+", "slack-"]
        + [f"balance+({v})" for v in labels]
        + [f"balance-({v})" for v in labels]
        + [f"gen-upper({v})" for v in labels[:n_g]]
        + [f"gen-lower({v})" for v in labels[:n_g]]
        + [f"flow-upper({e})" for e in range(m)]
        + [f"flow-lower({e})" for e in range(m)]
    )
    return StandardFormLp(a=a, b=b, c=c, row_tags=tuple(tags))


def build_z_stack(net: Network, bset: BindingSet) -> np.ndarray:
    """The square constraint stack ``Z`` of a binding set: load rows of the
    Laplacian, binding-generator rows of the Laplacian, binding-branch rows
    of the flow matrix, reference-angle row."""
    e1 = np.zeros((1, net.n_bus))
    e1[0, 0] = 1.0
    return np.vstack([
        net.laplacian[net.n_gen :, :],
        net.laplacian[list(bset.gens), :],
        net.flow_matrix[list(bset.branches), :],
        e1,
    ])


def full_stack_independent(net: Network, bset: BindingSet) -> bool:
    """The independence test on the full stack: LU with partial pivoting,
    one matrix at a time, dependent when the smallest pivot is at most
    ``RANK_REL_TOL`` times the largest."""
    a = build_z_stack(net, bset).copy()
    n = len(a)
    pivots = np.empty(n)
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        a[[j, p]] = a[[p, j]]
        pivots[j] = abs(a[j, j])
        if a[j, j] != 0.0:
            a[j + 1 :, j:] -= np.outer(a[j + 1 :, j] / a[j, j], a[j, j:])
    return bool(pivots.min() > RANK_REL_TOL * pivots.max())


def full_stack_jacobian(net: Network, bset: BindingSet) -> np.ndarray:
    """Signed Jacobian from ``np.linalg.solve`` on the full stack: the
    load-column block of ``-L_gen Z^-1``."""
    z_inv = np.linalg.solve(build_z_stack(net, bset), np.eye(net.n_bus))
    return -(net.laplacian[: net.n_gen] @ z_inv[:, : net.n_load])


def exactly_singular(a: np.ndarray) -> bool:
    """Whether a float matrix is singular, by elimination over its entries
    read as exact fractions."""
    m = [[Fraction(float(x)) for x in row] for row in a]
    n = len(m)
    for j in range(n):
        p = next((i for i in range(j, n) if m[i][j] != 0), None)
        if p is None:
            return True
        m[j], m[p] = m[p], m[j]
        for i in range(j + 1, n):
            if m[i][j] != 0:
                f = m[i][j] / m[j][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return False


def lex_candidates(net: Network) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every generator/branch set of ``n_gen - 1`` members: generator subsets
    in prefix-lexicographic order (each subset before its extensions), each
    followed by its branch subsets in lexicographic order."""
    need = net.n_gen - 1
    gen_subsets = sorted(
        (sg for size in range(need + 1) for sg in combinations(range(net.n_gen), size)),
    )
    return [(sg, sb) for sg in gen_subsets
            for sb in combinations(range(net.n_edge), need - len(sg))]


def row_keys(net: Network, rows) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The ``(gens, branches)`` key of each row of pool indices, one row at a
    time: its generators, then its branch rows less ``n_gen``."""
    n_gen = net.n_gen
    return [(tuple(v for v in row if v < n_gen), tuple(v - n_gen for v in row if v >= n_gen))
            for row in np.asarray(rows).tolist()]


@lru_cache(maxsize=None)
def _path_edges(net: Network) -> dict[tuple[int, int], set[int]]:
    """For each pair of generators ``f < g``, the edges on some simple
    ``f``-``g`` path, found by walking every simple path from ``f`` edge by
    edge (exponential, for small networks)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.n_bus)]
    for e, (u, v, _) in enumerate(net.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    found: dict[tuple[int, int], set[int]] = {}
    for f in range(net.n_gen):
        stack = [(f, (f,), ())]
        while stack:
            v, buses, path = stack.pop()
            if f < v < net.n_gen:
                found.setdefault((f, v), set()).update(path)
            stack.extend((w, buses + (w,), path + (e,)) for w, e in adj[v] if w not in buses)
    return found


def dead_branches(net: Network, gens) -> set[int]:
    """The branches on no simple path between two generators free of
    ``gens``: no transfer among the free generators crosses them."""
    free = [g for g in range(net.n_gen) if g not in gens]
    paths = _path_edges(net)
    crossed = (paths.get(pair, ()) for pair in combinations(free, 2))
    return set(range(net.n_edge)).difference(*crossed)


def binds_dead_branch(net: Network, key) -> bool:
    """Whether the candidate ``(gens, branches)`` binds one of the
    :func:`dead_branches` of its generator subset."""
    gens, branches = key
    return not dead_branches(net, gens).isdisjoint(branches)


def csgraph_components(n_bus: int, edges, removed=()) -> list[tuple[int, ...]]:
    """The connected components of the graph on ``range(n_bus)`` with edges
    ``(u, v, ...)`` less the edge indices ``removed``, from
    ``scipy.sparse.csgraph``: each as an ascending tuple, in order of their
    least vertex."""
    removed = set(removed)
    kept = [edge[:2] for e, edge in enumerate(edges) if e not in removed]
    rows, cols = zip(*kept) if kept else ((), ())
    graph = coo_matrix((np.ones(len(kept)), (rows, cols)), shape=(n_bus, n_bus))
    _, labels = connected_components(graph, directed=False)
    comps: dict[int, list[int]] = {}
    for v, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(v)
    return sorted(tuple(c) for c in comps.values())


# The package's stacked LU as it was before its batch-last layout, verbatim
# but for the single-matrix path, which raised an error the package no
# longer has, and for the row order it returns where it returned its row
# swaps: one ``(batch, n, n)`` array, each column step a whole-stack
# operation.
def lu_factor_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU-factor a square matrix, or a stack ``(..., n, n)`` of them, with
    partial pivoting, and apply the project's one independence test.

    A matrix is dependent when its smallest pivot magnitude is at most
    :data:`RANK_REL_TOL` times the larger of 1 and its largest pivot (an
    exact zero pivot included); the empty ``0 x 0`` matrix is independent.
    The floor of 1 fits the matrices the package factors, ``S N`` of
    :mod:`~opfsens.jacobian`: dimensionless, with entries of magnitude at
    most 1, so a matrix whose rows are all rounding noise is dependent
    rather than well scaled. Returns ``(lu, order, independent)``: the
    unit-lower and upper factors packed in one array, the input row at each
    pivot position, and the verdict of each matrix in the stack.
    Each matrix is factored exactly as it would be alone; the factors of a
    dependent one are not for solving.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    lu = a.reshape(math.prod(a.shape[:-2]), n, n).copy()
    order = np.tile(np.arange(n), (len(lu), 1))
    at = np.arange(len(lu))
    # an exact zero pivot divides zeros by zero: the NaN multipliers that
    # follow only reach matrices the test rejects anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n - 1):
            p = j + np.abs(lu[:, j:, j]).argmax(axis=1)
            row = lu[at, p]
            lu[at, p] = lu[:, j]
            lu[:, j] = row
            moved = order[at, p]
            order[at, p] = order[:, j]
            order[:, j] = moved
            below = lu[:, j + 1 :, j]
            below /= row[:, j, None]
            lu[:, j + 1 :, j + 1 :] -= below[:, :, None] * row[:, None, j + 1 :]
    pivots = np.abs(lu.diagonal(axis1=1, axis2=2))
    scale = np.maximum(pivots.max(axis=1, initial=0.0), 1.0)
    independent = pivots.min(axis=1, initial=np.inf) > RANK_REL_TOL * scale
    return lu.reshape(a.shape), order.reshape(a.shape[:-1]), independent.reshape(a.shape[:-2])


def sn_basis(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """``(pool_n, pool_p)``: the PTDF pool of the generator rows of the
    Laplacian and the flow matrix, times the angles of unit injections at
    generators 2..n_gen and at the load buses, referenced at bus 0, computed
    as the package computed them before it referenced each set at its lowest
    free generator."""
    n, k = net.n_bus, net.n_gen - 1
    gen_rows = np.vstack([-np.ones((1, n - 1)), np.eye(k, n - 1)])
    ptdf = np.linalg.solve(net.laplacian[1:, 1:], net.flow_matrix[:, 1:].T).T
    pool = np.vstack([gen_rows, ptdf])
    return np.ascontiguousarray(pool[:, :k]), np.ascontiguousarray(pool[:, k:])


def sn_solve(net: Network, rows: np.ndarray, loads) -> tuple[np.ndarray, np.ndarray]:
    """The package's test and solve as they were before it factored each
    set's reduced block: the row-major LU above of each set's full ``k x k``
    matrix ``S N``, rows of pool indices gathered from :func:`sn_basis`, the
    package's solve of the passed sets, and the Jacobian assembled with row 0
    as ``np.subtract.reduce`` of ones over ``y``."""
    pool_n, pool_p = sn_basis(net)
    loads = np.asarray(loads, dtype=np.intp)
    lu, order, ok = lu_factor_checked(pool_n[rows])
    passed = np.flatnonzero(ok)
    if not (passed.size and loads.size):
        return ok, np.zeros((passed.size, net.n_gen, loads.size))
    in_order = np.take_along_axis(rows[passed], order[passed], axis=1)
    rhs = np.ascontiguousarray(pool_p[in_order[:, :, None], loads].transpose(1, 2, 0))
    y = linalg.lu_solve_factored(lu[passed].transpose(1, 2, 0), rhs)
    jac = np.concatenate([np.ones((1,) + y.shape[1:]), y])
    jac[0] = np.subtract.reduce(jac)
    return ok, np.ascontiguousarray(jac.transpose(2, 0, 1))


def block_solve(net: Network, rows: np.ndarray, loads) -> tuple[np.ndarray, np.ndarray]:
    """The reduced-block test and solve one set at a time, row-major: the
    set's lowest free generator ``r`` as reference, its ``t x t`` block of
    branch rows on the other free generators, each entry the PTDF basis at
    the generator's bus minus that at ``r``, the row-major LU above, a
    row-major forward and back substitution, and the Jacobian with the free
    rows ``y``, the binding rows zero and row ``r`` one minus each row of
    ``y`` in turn."""
    by_bus = net.ptdf_basis
    loads = np.asarray(loads, dtype=np.intp)
    oks, jacs = [], []
    for row in np.asarray(rows).tolist():
        gens = {v for v in row if v < net.n_gen}
        ref, *others = [g for g in range(net.n_gen) if g not in gens]
        branches = [v for v in row if v >= net.n_gen]
        block = (by_bus[np.ix_(others, branches)] - by_bus[ref, branches]).T
        lu, order, ok = (v[0] for v in lu_factor_checked(block[None]))
        oks.append(bool(ok))
        if not ok:
            continue
        y = (by_bus[np.ix_(net.n_gen + loads, branches)] - by_bus[ref, branches]).T[order]
        for j in range(len(y)):
            y[j + 1 :] -= lu[j + 1 :, j, None] * y[j]
        for j in reversed(range(len(y))):
            y[j] /= lu[j, j]
            y[:j] -= lu[:j, j, None] * y[j]
        jac = np.zeros((net.n_gen, loads.size))
        jac[others] = y
        jac[ref] = 1.0
        for yj in y:
            jac[ref] -= yj
        jacs.append(jac)
    return np.array(oks, dtype=bool), np.array(jacs).reshape(len(jacs), net.n_gen, loads.size)


def fold(records, tie_tol: float, all_ties: bool):
    """The tie rule one record at a time over ``(values, key)`` records in
    scan order: a value above an entry's maximum raises it, drops the kept
    records more than ``tie_tol`` below the new maximum and is kept; with
    ``all_ties`` a value within ``tie_tol`` of the maximum is kept too.
    Returns the maxima, the kept ``(value, key)`` lists and the record
    count."""
    best: list[float] = []
    kept: list[list] = []
    count = 0
    for values, key in records:
        if not count:
            best = [-math.inf] * len(values)
            kept = [[] for _ in values]
        count += 1
        for p, value in enumerate(values):
            if value > best[p]:
                best[p] = value
                kept[p] = [entry for entry in kept[p] if entry[0] >= value - tie_tol]
                kept[p].append((value, key))
            elif all_ties and value >= best[p] - tie_tol:
                kept[p].append((value, key))
    return best, kept, count


# The package's simplex as it was before its pivots skipped zero
# multipliers, verbatim: every pivot subtracts a dense outer product from the
# whole tableau, phase 2 keeps the artificial columns, and Bland's entering
# pick is a Python loop.
def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _run_simplex(tab: np.ndarray, basis: np.ndarray, allowed: int, max_iter: int) -> int:
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
        candidates = np.flatnonzero(ratios <= best + PIVOT_TOL * (1.0 + abs(best)))
        leaving = int(min(candidates, key=lambda r: basis[r]))
        _pivot(tab, basis, leaving, entering)
    raise NumericalFailure(f"simplex did not terminate in {max_iter} iterations")


def solve_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpSolution:
    """Minimize ``c'x`` over ``a x = b, x >= 0`` on the dense tableau."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = a.shape

    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.abs(b)

    max_iter = 2000 + 200 * (m + n)

    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = np.arange(n, n + m)
    tab[-1, n : n + m] = 1.0
    tab[-1] -= tab[:m].sum(axis=0)

    iters = _run_simplex(tab, basis, n + m, max_iter)
    if tab[-1, -1] < -FEAS_TOL:
        raise Infeasible(f"phase-1 optimum {-tab[-1, -1]:.3e} > 0")

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

    a_kept = a[keep] if not keep.all() else a
    b_cols = a_kept[:, basis]
    try:
        y_kept = np.linalg.solve(b_cols.T, c[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("singular final basis") from exc
    duals = np.zeros(m)
    duals[keep] = y_kept
    duals[flip] = -duals[flip]
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
