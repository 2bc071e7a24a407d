"""Worst-case sensitivity search over independent binding sets.

The worst-case sensitivity of generator ``i`` to load ``j`` is the maximum
of ``|J[i, j]|`` over every binding set (generator subset plus branch subset
totalling ``n_gen - 1`` members) whose constraint stack is independent.
Enumeration is exhaustive (the problem is discrete and non-convex). One scan
walks the candidate sets in lexicographic order, a chunk at a time, and every
query here reduces over it. A chunk is an array of pool row indices, built
with numpy from tables of branch combinations; it is tested and solved by
:func:`~opfsens.jacobian.reduced_solve` for only the load columns the query
reads: one for a single pair and its ties, the load set for MISO, every load
for the whole table, none for enumeration. Index rows become
``(gens, branches)`` keys only for the records a query keeps, in one
conversion per chunk.

Tie rule: the reported value is the maximum, and the reported set is the
first independent set in lexicographic order whose value is at least the
maximum minus :data:`TIE_TOL`, which is also the first of the tied sets. The
rule depends on values and order only, so results do not depend on chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DegeneratePoint, DependentBindings, EmptyLoadSet, NoValidSet
from .jacobian import BindingSet, jacobian_from_binding, reduced_solve
from .network import Network

#: two candidate values within this of each other count as a tie
TIE_TOL = 1e-9

#: candidate sets factored together: scan time is flat from 512 to 4096 on the
#: 18-bus chain and the 27-bus stages; 1024 matrices S N of the 18-bus chain
#: (k = 5) take 0.2 MB
CHUNK = 1024

#: most rows of one precomputed branch-combination table; longer combination
#: lists are built a fixed prefix at a time from one table's tails
COMBO_ROWS = 1 << 16

#: networks with at most this many candidate sets scan chunks built once per
#: shape and ``CHUNK`` (the 27-bus stages have 78 to 1820); larger ones, such
#: as the 18-bus chain with 53130 (2.1 MB of rows), stream them
CACHED_CANDIDATES = 4096

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


@lru_cache(maxsize=64)
def _combinations(m: int, r: int) -> np.ndarray:
    """All ``r``-subsets of ``range(m)``, one per row, lexicographic order
    (read-only: the array is shared by every caller).

    Built one column at a time, extending each row only by values that still
    leave room for the remaining columns.
    """
    rows = np.zeros((1, 0), dtype=np.intp)
    for t in range(r):
        lo = rows[:, -1] + 1 if t else np.zeros(1, dtype=np.intp)
        reps = np.maximum(m - r + t + 1 - lo, 0)
        parent = np.repeat(np.arange(len(rows)), reps)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps) + lo[parent]
        rows = np.column_stack([rows[parent], value])
    rows.setflags(write=False)
    return rows


def _combination_blocks(m: int, r: int) -> Iterator[np.ndarray]:
    """The ``r``-subsets of ``range(m)`` in lexicographic order, in blocks.

    A table of all ``q``-subsets, ``q`` as large as keeps it within
    :data:`COMBO_ROWS` rows, is the whole list when ``q = r``. Otherwise each
    block is one fixed prefix of ``r - q`` entries, from
    ``itertools.combinations``, followed by every suffix from the table whose
    first entry lies past the prefix: a contiguous tail of the table.
    """
    q = r
    while math.comb(m, q) > COMBO_ROWS:
        q -= 1
    table = _combinations(m, q)
    if q == r:
        yield table
        return
    first = np.searchsorted(table[:, 0], np.arange(m + 1)) if q else np.zeros(m + 1, np.intp)
    for prefix in combinations(range(m), r - q):
        tail = table[first[prefix[-1] + 1] :]
        if len(tail):
            block = np.empty((len(tail), r), dtype=np.intp)
            block[:, : r - q] = prefix
            block[:, r - q :] = tail
            yield block


def _candidate_rows(n_gen: int, n_edge: int) -> Iterator[np.ndarray]:
    """Every generator/branch set of the required total size, in
    lexicographic order (generator subset first, then branch subset), as
    blocks of :func:`~opfsens.jacobian.pool_rows` rows."""
    need_total = n_gen - 1
    for sg in _lex_subsets(n_gen, need_total):
        need = need_total - len(sg)
        if need > n_edge:
            continue
        for block in _combination_blocks(n_edge, need):
            rows = np.empty((len(block), need_total), dtype=np.intp)
            rows[:, : len(sg)] = sg
            rows[:, len(sg) :] = n_gen + block
            yield rows


def _keys(net: Network, rows: np.ndarray) -> list[Key]:
    """The ``(gens, branches)`` keys of rows of pool indices, in order."""
    is_gen = rows < net.n_gen
    n_gens = is_gen.sum(axis=1).tolist()
    rows = np.where(is_gen, rows, rows - net.n_gen).tolist()
    return [(tuple(row[:c]), tuple(row[c:])) for row, c in zip(rows, n_gens)]


def candidate_count(net: Network) -> int:
    """Number of cardinality-feasible sets, before the independence filter."""
    k_max = net.n_gen - 1
    return sum(
        math.comb(net.n_gen, k) * math.comb(net.n_edge, k_max - k)
        for k in range(k_max + 1)
        if k_max - k <= net.n_edge
    )


def _chunks(blocks: Iterator[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Regroup row blocks into arrays of ``size`` rows (the last may be short)."""
    pending: list[np.ndarray] = []
    have = 0
    for block in blocks:
        while len(block):
            part, block = block[: size - have], block[size - have :]
            pending.append(part)
            have += len(part)
            if have == size:
                yield np.concatenate(pending)
                pending, have = [], 0
    if pending:
        yield np.concatenate(pending)


@lru_cache(maxsize=16)
def _cached_chunks(n_gen: int, n_edge: int, size: int) -> tuple[np.ndarray, ...]:
    """The chunks of ``size`` rows of :func:`_candidate_rows` for one
    network shape (read-only: they are shared by every network of that
    shape)."""
    chunks = tuple(_chunks(_candidate_rows(n_gen, n_edge), size))
    for rows in chunks:
        rows.setflags(write=False)
    return chunks


def _scan(net: Network, loads: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one pass over the candidate sets, ``CHUNK`` at a time in
    lexicographic order: yields the pool rows of each chunk's independent
    sets and their signed Jacobians for the load columns ``loads``, shape
    ``(len(rows), n_gen, len(loads))``, from :func:`reduced_solve`; with no
    ``loads`` nothing is solved. Chunks span generator subsets, so a small
    network is one kernel call, and up to :data:`CACHED_CANDIDATES` they are
    built once per shape and ``CHUNK``."""
    if candidate_count(net) <= CACHED_CANDIDATES:
        chunks = _cached_chunks(net.n_gen, net.n_edge, CHUNK)
    else:
        chunks = _chunks(_candidate_rows(net.n_gen, net.n_edge), CHUNK)
    for rows in chunks:
        ok, jac = reduced_solve(net, rows, loads)
        if ok.any():
            yield rows[ok], jac


def _fold(
    net: Network,
    loads: Sequence[int],
    score: Callable[[np.ndarray], np.ndarray],
    all_ties: bool = False,
) -> tuple[np.ndarray, list[list[tuple[float, Key]]], int]:
    """Reduce the scan under the tie rule.

    ``score`` maps a chunk of Jacobians, restricted to the load columns
    ``loads``, to values ``(k, m)``, one column per reported entry. Returns
    the maxima ``(m,)``, the kept ``(value, key)`` list of each entry, whose
    first key is the argmax, and the number of independent sets. The argmax
    beats every set before it, so only such records within :data:`TIE_TOL`
    of the running maximum are kept; with ``all_ties`` every set within
    :data:`TIE_TOL` of it is.
    """
    best = kept = None
    valid = 0
    for rows, jac in _scan(net, loads):
        vals = score(jac)
        if best is None:
            best = np.full(vals.shape[1], -np.inf)
            kept = [[] for _ in range(vals.shape[1])]
        valid += len(rows)
        running = np.maximum.accumulate(np.vstack([best, vals]))
        floor = running[-1] - TIE_TOL
        take = vals >= floor
        if not all_ties:
            take &= vals > running[:-1]
        for p in np.flatnonzero(running[-1] > best):
            kept[p] = [entry for entry in kept[p] if entry[0] >= floor[p]]
        ts, ps = np.nonzero(take)
        for p, value, key in zip(ps.tolist(), vals[ts, ps].tolist(), _keys(net, rows[ts])):
            kept[p].append((value, key))
        # a copy: a view would keep the whole running array alive in reports
        best = running[-1].copy()
    if not valid:
        raise NoValidSet("no independent binding set exists for this network")
    return best, kept, valid


def enumerate_binding_sets(net: Network) -> Iterator[BindingSet]:
    """Yield every independent binding set in lexicographic order."""
    for rows, _ in _scan(net, ()):
        for key in _keys(net, rows):
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


def worst_case_siso(net: Network, gen: int, load: int) -> tuple[float, BindingSet]:
    """Worst-case sensitivity of one generator-load pair and its argmax.

    ``gen`` and ``load`` are zero-based internal indices (load ``j`` is bus
    ``n_gen + j``).
    """
    _check_pair(net, gen, load)
    best, kept, _ = _fold(net, [load], lambda jac: np.abs(jac[:, gen]))
    return float(best[0]), BindingSet(*kept[0][0][1])


def worst_case_miso(net: Network, gen: int, loads: Sequence[int]) -> tuple[float, BindingSet]:
    """Worst-case sensitivity of one generator to joint perturbations of a
    load set: the Euclidean norm of the Jacobian row restricted to ``loads``,
    maximized over binding sets (the exact Lipschitz constant of the linear
    response under 2-norm perturbations confined to those loads)."""
    loads = sorted(set(int(j) for j in loads))
    if not loads:
        raise EmptyLoadSet("MISO sensitivity needs at least one load index")
    if loads[0] < 0 or loads[-1] >= net.n_load:
        raise IndexError(f"load indices {loads} out of range")
    if not 0 <= gen < net.n_gen:
        raise IndexError(f"generator index {gen} out of range")
    best, kept, _ = _fold(net, loads, lambda jac: np.linalg.norm(jac[:, gen], axis=1)[:, None])
    return float(best[0]), BindingSet(*kept[0][0][1])


def worst_case_all(net: Network) -> SensitivityReport:
    """Worst cases for every pair in one enumeration pass."""
    n_l = net.n_load
    best, kept, valid = _fold(net, range(n_l), lambda jac: np.abs(jac).reshape(len(jac), -1))
    argmax = [BindingSet(*entries[0][1]) for entries in kept]
    return SensitivityReport(
        cwc=best.reshape(net.n_gen, n_l),
        argmax=tuple(tuple(argmax[i * n_l : (i + 1) * n_l]) for i in range(net.n_gen)),
        candidates_total=candidate_count(net),
        candidates_valid=valid,
    )


def tied_argmax_sets(net: Network, gen: int, load: int) -> tuple[float, BindingSet, list[BindingSet]]:
    """Worst case, its argmax, and every set tied within :data:`TIE_TOL`, in
    lexicographic order; the argmax is the first of them.

    Degenerate maxima are common (a binding leaf branch is indistinguishable
    from binding the generator behind it), so reports list all of them.
    """
    _check_pair(net, gen, load)
    best, kept, _ = _fold(net, [load], lambda jac: np.abs(jac[:, gen]), all_ties=True)
    ties = [BindingSet(*key) for _, key in kept[0]]
    return float(best[0]), ties[0], ties


def local_sensitivity(
    net: Network,
    params,
    load: np.ndarray,
    gen: int,
    load_idx: int,
) -> float:
    """|J_ij| at the binding set realized by this load: the local Lipschitz
    constant of generator ``gen`` w.r.t. load ``load_idx`` inside the
    active-set region containing ``load``."""
    from .dcopf import extract_binding_set, solve_opf

    sol = solve_opf(net, params, load)
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
