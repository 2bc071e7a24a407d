"""Worst-case sensitivity search over independent binding sets.

The worst-case sensitivity of generator ``i`` to load ``j`` is the maximum
of ``|J[i, j]|`` over every binding set (generator subset plus branch subset
totalling ``n_gen - 1`` members) whose constraint stack is independent.
Enumeration is exhaustive (the problem is discrete and non-convex). One scan
walks the candidate sets in lexicographic order, a chunk at a time, and every
query here reduces over it.

Tie rule: the reported value is the maximum, and the reported set is the
first independent set in lexicographic order whose value is at least the
maximum minus :data:`TIE_TOL`, which is also the first of the tied sets. The
rule depends on values and order only, so results do not depend on chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linalg
from .errors import DegeneratePoint, DependentBindings, EmptyLoadSet, NoValidSet
from .jacobian import BindingSet, jacobian_from_binding
from .linalg import RANK_REL_TOL
from .network import Network

#: two candidate values within this of each other count as a tie
TIE_TOL = 1e-9

#: candidate sets factorized together (128 stacks of the 18-bus chain: 0.33 MB)
CHUNK = 128

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _lex_subsets(n: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """All subsets of ``range(n)`` up to ``max_size``, lexicographic order."""
    prefix: list[int] = []

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        if len(prefix) < max_size:
            for v in range(start, n):
                prefix.append(v)
                yield from rec(v + 1)
                prefix.pop()

    yield from rec(0)


def candidate_sets(net: Network) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All generator/branch set pairs of the required total size, in
    lexicographic order (generator subset first, then branch subset)."""
    need_total = net.n_gen - 1
    for sg in _lex_subsets(net.n_gen, need_total):
        need = need_total - len(sg)
        if need > net.n_edge:
            continue
        for sb in combinations(range(net.n_edge), need):
            yield sg, sb


def candidate_count(net: Network) -> int:
    """Number of cardinality-feasible sets, before the independence filter."""
    k_max = net.n_gen - 1
    return sum(
        math.comb(net.n_gen, k) * math.comb(net.n_edge, k_max - k)
        for k in range(k_max + 1)
        if k_max - k <= net.n_edge
    )


def _scan(net: Network, rank_tol: float) -> Iterator[tuple[list[Key], np.ndarray]]:
    """The one pass over the candidate sets, ``CHUNK`` at a time in
    lexicographic order: yields the keys of each chunk's independent sets and
    their signed Jacobians, shape ``(len(keys), n_gen, n_load)``."""
    n_g, n_l = net.n_gen, net.n_load
    e1 = np.zeros((1, net.n_bus))
    e1[0, 0] = 1.0
    # row pool: a stack takes every load row, its own generator and branch
    # rows, and the reference-angle row, in the order of build_z_stack
    pool = np.vstack([net.laplacian[n_g:], net.laplacian[:n_g], net.flow_matrix, e1])
    load_rows, ref_row = list(range(n_l)), [len(pool) - 1]
    rhs = np.eye(net.n_bus)[:, :n_l]
    gen_rows = net.laplacian[:n_g]
    cands = candidate_sets(net)
    while chunk := list(islice(cands, CHUNK)):
        rows = [load_rows + [n_l + g for g in sg] + [n_l + n_g + e for e in sb] + ref_row
                for sg, sb in chunk]
        lu, piv, ok = linalg.lu_factor_checked(pool[rows], rank_tol)
        if ok.any():
            z_inv = linalg.lu_solve_factored((lu[ok], piv[ok]), rhs)
            yield [key for key, keep in zip(chunk, ok) if keep], -(gen_rows @ z_inv)


def _fold(
    net: Network,
    rank_tol: float,
    score: Callable[[np.ndarray], np.ndarray],
    tie_tol: float = TIE_TOL,
    all_ties: bool = False,
) -> tuple[np.ndarray, list[list[tuple[float, Key]]], int]:
    """Reduce the scan under the tie rule.

    ``score`` maps a chunk of Jacobians to values ``(k, m)``, one column per
    reported entry. Returns the maxima ``(m,)``, the kept ``(value, key)``
    list of each entry, whose first key is the argmax, and the number of
    independent sets. The argmax beats every set before it, so only such
    records within ``tie_tol`` of the running maximum are kept; with
    ``all_ties`` every set within ``tie_tol`` of it is.
    """
    best = kept = None
    valid = 0
    for keys, jac in _scan(net, rank_tol):
        vals = score(jac)
        if best is None:
            best = np.full(vals.shape[1], -np.inf)
            kept = [[] for _ in range(vals.shape[1])]
        valid += len(keys)
        running = np.maximum.accumulate(np.vstack([best, vals]))
        floor = running[-1] - tie_tol
        take = vals >= floor
        if not all_ties:
            take &= vals > running[:-1]
        for p in np.flatnonzero(running[-1] > best):
            kept[p] = [entry for entry in kept[p] if entry[0] >= floor[p]]
        for t, p in zip(*np.nonzero(take)):
            kept[p].append((vals[t, p], keys[t]))
        best = running[-1]
    if not valid:
        raise NoValidSet("no independent binding set exists for this network")
    return best, kept, valid


def enumerate_binding_sets(net: Network, rank_tol: float = RANK_REL_TOL) -> Iterator[BindingSet]:
    """Yield every independent binding set in lexicographic order."""
    for keys, _ in _scan(net, rank_tol):
        for key in keys:
            yield BindingSet(*key)


@dataclass(frozen=True)
class SensitivityReport:
    """Worst-case sensitivity of every generator-load pair.

    ``cwc[i, j]`` is the worst case for generator ``i`` and load ``j``;
    ``argmax[i][j]`` the set the tie rule picks for it.
    """

    cwc: np.ndarray
    argmax: tuple[tuple[BindingSet, ...], ...]
    candidates_total: int
    candidates_valid: int


def _check_pair(net: Network, gen: int, load: int) -> None:
    if not 0 <= gen < net.n_gen:
        raise IndexError(f"generator index {gen} out of range")
    if not 0 <= load < net.n_load:
        raise IndexError(f"load index {load} out of range")


def worst_case_siso(
    net: Network, gen: int, load: int, rank_tol: float = RANK_REL_TOL
) -> tuple[float, BindingSet]:
    """Worst-case sensitivity of one generator-load pair and its argmax.

    ``gen`` and ``load`` are zero-based internal indices (load ``j`` is bus
    ``n_gen + j``).
    """
    _check_pair(net, gen, load)
    best, kept, _ = _fold(net, rank_tol, lambda jac: np.abs(jac[:, gen, load, None]))
    return float(best[0]), BindingSet(*kept[0][0][1])


def worst_case_miso(
    net: Network,
    gen: int,
    loads: Sequence[int],
    norm: str = "euclidean",
    rank_tol: float = RANK_REL_TOL,
) -> tuple[float, BindingSet]:
    """Worst-case sensitivity of one generator to joint perturbations of a
    load set: the Euclidean norm of the Jacobian row restricted to ``loads``,
    maximized over binding sets (the exact Lipschitz constant of the linear
    response under 2-norm perturbations confined to those loads)."""
    if norm != "euclidean":
        raise ValueError(f"unsupported norm {norm!r}")
    loads = sorted(set(int(j) for j in loads))
    if not loads:
        raise EmptyLoadSet("MISO sensitivity needs at least one load index")
    if loads[0] < 0 or loads[-1] >= net.n_load:
        raise IndexError(f"load indices {loads} out of range")
    if not 0 <= gen < net.n_gen:
        raise IndexError(f"generator index {gen} out of range")
    best, kept, _ = _fold(
        net, rank_tol, lambda jac: np.linalg.norm(jac[:, gen, loads], axis=1)[:, None]
    )
    return float(best[0]), BindingSet(*kept[0][0][1])


def worst_case_all(net: Network, rank_tol: float = RANK_REL_TOL) -> SensitivityReport:
    """Worst cases for every pair in one enumeration pass."""
    n_l = net.n_load
    best, kept, valid = _fold(net, rank_tol, lambda jac: np.abs(jac).reshape(len(jac), -1))
    argmax = [BindingSet(*entries[0][1]) for entries in kept]
    return SensitivityReport(
        cwc=best.reshape(net.n_gen, n_l),
        argmax=tuple(tuple(argmax[i * n_l : (i + 1) * n_l]) for i in range(net.n_gen)),
        candidates_total=candidate_count(net),
        candidates_valid=valid,
    )


def tied_argmax_sets(
    net: Network,
    gen: int,
    load: int,
    tie_tol: float = TIE_TOL,
    rank_tol: float = RANK_REL_TOL,
) -> tuple[float, BindingSet, list[BindingSet]]:
    """Worst case, its argmax, and every set tied within ``tie_tol``, in
    lexicographic order; the argmax is the first of them.

    Degenerate maxima are common (a binding leaf branch is indistinguishable
    from binding the generator behind it), so reports list all of them.
    """
    _check_pair(net, gen, load)
    best, kept, _ = _fold(
        net, rank_tol, lambda jac: np.abs(jac[:, gen, load, None]), tie_tol, all_ties=True
    )
    ties = [BindingSet(*key) for _, key in kept[0]]
    return float(best[0]), ties[0], ties


def local_sensitivity(
    net: Network,
    params,
    load: np.ndarray,
    gen: int,
    load_idx: int,
    binding_tol: float | None = None,
) -> float:
    """|J_ij| at the binding set realized by this load: the local Lipschitz
    constant of generator ``gen`` w.r.t. load ``load_idx`` inside the
    active-set region containing ``load``."""
    from .dcopf import BINDING_TOL, extract_binding_set, solve_opf

    tol = BINDING_TOL if binding_tol is None else binding_tol
    sol = solve_opf(net, params, load, binding_tol=tol)
    bset = extract_binding_set(sol, net, params)
    jac = jacobian_from_binding(net, bset).jac
    return abs(float(jac[gen, load_idx]))


@dataclass(frozen=True)
class StructuralCheck:
    """Cut-structure diagnostic for one binding set.

    When removing the binding branches disconnects the graph, every component
    must keep at least one non-binding generator; ``passed`` records that, and
    the check is vacuous (single component) when the set is not a cut."""

    components: tuple[tuple[int, ...], ...]
    passed: bool
    vacuous: bool


def structural_check(net: Network, bset: BindingSet) -> StructuralCheck:
    """Verify the free-generator-per-component property of a binding set."""
    removed = set(bset.branches)
    adjacency: list[list[int]] = [[] for _ in range(net.n_bus)]
    for e, (u, v, _) in enumerate(net.edges):
        if e not in removed:
            adjacency[u].append(v)
            adjacency[v].append(u)

    seen = [False] * net.n_bus
    components = []
    for s in range(net.n_bus):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(tuple(sorted(comp)))

    binding = set(bset.gens)
    passed = all(
        any(v < net.n_gen and v not in binding for v in comp) for comp in components
    )
    return StructuralCheck(
        components=tuple(components),
        passed=passed,
        vacuous=len(components) == 1,
    )


@dataclass(frozen=True)
class SampledBound:
    """Monte-Carlo lower bound for the fixed-parameter sensitivity supremum."""

    value: float
    samples_used: int
    samples_degenerate: int


def sample_lower_bound(
    net: Network,
    params,
    gen: int,
    load_idx: int,
    box_low: np.ndarray,
    box_high: np.ndarray,
    samples: int = 100,
    seed: int = 0,
) -> SampledBound:
    """Sample loads uniformly from a box and take the best local sensitivity.

    This is explicitly a lower bound on the supremum over the load domain at
    fixed cost and limits; no exact algorithm for that supremum is offered.
    Samples whose binding count is irregular are skipped and counted.
    """
    from .dcopf import extract_binding_set, solve_opf

    rng = np.random.default_rng(seed)
    box_low = np.asarray(box_low, dtype=float)
    box_high = np.asarray(box_high, dtype=float)
    best = 0.0
    used = degenerate = 0
    for _ in range(samples):
        load = rng.uniform(box_low, box_high)
        try:
            sol = solve_opf(net, params, load)
            bset = extract_binding_set(sol, net, params)
        except (DegeneratePoint, DependentBindings):
            degenerate += 1
            continue
        used += 1
        jac = jacobian_from_binding(net, bset).jac
        best = max(best, abs(float(jac[gen, load_idx])))
    return SampledBound(value=best, samples_used=used, samples_degenerate=degenerate)
