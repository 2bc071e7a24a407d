"""Worst-case sensitivity search over independent binding sets.

The worst-case sensitivity of generator ``i`` to load ``j`` is the maximum
of ``|J[i, j]|`` over every binding set (generator subset plus branch subset
totalling ``n_gen - 1`` members) whose constraint stack is independent.
Enumeration is exhaustive (the problem is discrete and non-convex). One scan
walks the candidate sets in lexicographic order, a chunk at a time, and every
query here reduces over it. It skips, per generator subset, the sets that
bind a dead branch, one on no simple path between two free generators: no
transfer among them crosses it, so their blocks have a row of rounding
noise and fail the test anyway (:func:`~opfsens.jacobian.live_branches`,
read off the network's side table). A chunk is a
:class:`~opfsens.jacobian.SetBatch` of pool row indices, built with numpy
from tables of branch combinations, with the layout of each set's reduced
block, packed once per network and ``CHUNK`` (:data:`_LAYOUTS`); it is
tested and solved by
:func:`~opfsens.jacobian.reduced_solve` for only the load columns the query
reads: one for a single pair and its ties, the load set for MISO, every load
for the whole table, none for enumeration. The fold reads its one result,
a :class:`~opfsens.jacobian.Solved` of the sets that pass, through three
methods: each chunk's maxima of ``|J|`` run by run (``abs_max``), per-set
values only for the entries the chunk can change (``values``), and, in one
conversion per chunk, the shared binding sets of the records a query keeps
(``sets``), one object per distinct set. No Jacobian is assembled.

Tie rule: the reported value is the maximum, and the reported set is the
first independent set in lexicographic order whose value is at least the
maximum minus :data:`TIE_TOL`, which is also the first of the tied sets. The
rule depends on values and order only, so results do not depend on chunking.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyLoadSet, InvalidIndex, NoValidSet
from .jacobian import (
    BindingSet,
    Part,
    SetBatch,
    Solved,
    live_branches,
    reduced_solve,
    set_batch,
)
from .network import Network

#: two candidate values within this of each other count as a tie
TIE_TOL = 1e-9

#: candidate sets factored together. Against 1024, scan time is about 10%
#: higher at 512 on the 18-bus chain and the 27-bus stages, and 0-16% lower
#: at 2048 and 4096; 1024 of the 18-bus chain's full 5 x 5 blocks take 0.2 MB,
#: and the Jacobians of 1024 sets for all its loads 0.6 MB
CHUNK = 1024

#: most rows of one precomputed branch-combination table; longer combination
#: lists are built a fixed prefix at a time from one table's tails
COMBO_ROWS = 1 << 16

#: the chunks of a network are packed once per ``CHUNK`` and kept while
#: they hold at most this many bytes, each chunk and its arrays as
#: ``sys.getsizeof`` counts them: the 27-bus stages, with 63 to 1369 live
#: candidates, and the 18-bus chain's 45 chunks of 41851 live candidates
#: (0.42 MB, its pool rows ``uint8``) are kept; larger layouts, such as that
#: chain's at ``CHUNK`` 1 (41851 one-set chunks, 34 MB) or 7 (5.2 MB) or the
#: 32.0 M live candidates of the 27-bus chain, are built as the scan goes
CACHED_BYTES = 1 << 20

#: each scanned network's layout, dropped with the network: the ``CHUNK``
#: it was packed at and its chunks, or None past :data:`CACHED_BYTES`
_LAYOUTS: weakref.WeakKeyDictionary[
    Network, tuple[int, tuple[SetBatch, ...] | None]] = weakref.WeakKeyDictionary()


@lru_cache(maxsize=64)
def _combinations(m: int, r: int) -> np.ndarray:
    """All ``r``-subsets of ``range(m)``, one per row, lexicographic order
    (read-only: the array is shared by every caller)."""
    count = math.comb(m, r)
    rows = np.fromiter(chain.from_iterable(combinations(range(m), r)), np.intp, count * r)
    rows = rows.reshape(count, r)
    rows.setflags(write=False)
    return rows


def _gen_subsets(n_gen: int) -> list[tuple[int, ...]]:
    """The generator subsets of candidate sets, each before its extensions."""
    return sorted(chain.from_iterable(combinations(range(n_gen), k) for k in range(n_gen)))


def _subset_rows(gens: tuple[int, ...], live: Sequence[int], n_gen: int) -> Iterator[np.ndarray]:
    """The candidate sets that bind the generators ``gens`` and branches
    from ``live``, in lexicographic order of their branches, as blocks of
    :func:`~opfsens.jacobian.pool_rows` rows.

    The ``need`` branches come from a table of all ``q``-subsets of the
    positions in ``live``, ``q`` as large as keeps it within
    :data:`COMBO_ROWS` rows. Each block is one prefix, the generator subset
    and ``need - q`` branches from ``itertools.combinations``, followed by
    every suffix from the table whose first entry lies past the prefix: a
    contiguous tail of the table, the whole table when ``q = need``.
    """
    size = n_gen - 1
    need = size - len(gens)
    pool = n_gen + np.array(live, dtype=np.intp)
    q = need
    while math.comb(len(pool), q) > COMBO_ROWS:
        q -= 1
    table = _combinations(len(pool), q)
    if q < need:  # first[v]: the first table row that starts at v or later
        first = (np.searchsorted(table[:, 0], np.arange(len(pool) + 1)) if q
                 else np.zeros(len(pool) + 1, np.intp))
    for branches in combinations(range(len(pool)), need - q):
        tail = table[first[branches[-1] + 1] :] if branches else table
        if len(tail):
            rows = np.empty((len(tail), size), dtype=np.intp)
            rows[:, : size - q] = gens + tuple(pool[list(branches)])
            rows[:, size - q :] = pool.take(tail)
            yield rows


def candidate_count(net: Network) -> int:
    """Number of cardinality-feasible sets, before the independence filter:
    ``n_gen - 1`` of the ``n_gen + n_edge`` pool rows."""
    return math.comb(net.n_gen + net.n_edge, net.n_gen - 1) if net.n_gen else 0


def _subsets(net: Network) -> Iterator[tuple[tuple[int, ...], np.ndarray, int]]:
    """Each generator subset of the candidate sets, in order, with its live
    branches (:func:`~opfsens.jacobian.live_branches`) and the number of
    candidate sets the scan walks for it: those that bind it and live
    branches only."""
    for gens in _gen_subsets(net.n_gen):
        branches = live_branches(net, gens)
        yield gens, branches, math.comb(len(branches), net.n_gen - 1 - len(gens))


def live_candidate_count(net: Network) -> int:
    """Number of candidate sets the scan walks: the cardinality-feasible
    sets (:func:`candidate_count`) less those that bind a dead branch."""
    return sum(count for _, _, count in _subsets(net))


def _chunks(net: Network, size: int) -> Iterator[SetBatch]:
    """The candidate sets of ``net`` on the live branches of each generator
    subset (:func:`_subsets`) in lexicographic order, at most ``size`` at a
    time. Consecutive sets share a chunk, padded to the largest block in
    it, but a generator subset that does not fit in the open chunk starts a
    new one, so only a subset of more than ``size`` sets is split."""
    n_gen, n_edge = net.n_gen, net.n_edge
    pending: list[Part] = []
    have = 0
    for gens, branches, count in _subsets(net):
        if pending and have + count > size:
            yield set_batch(n_gen, n_edge, pending)
            pending, have = [], 0
        for block in _subset_rows(gens, branches, n_gen):
            while len(block):
                part, block = block[: size - have], block[size - have :]
                pending.append((gens, part))
                have += len(part)
                if have == size:
                    yield set_batch(n_gen, n_edge, pending)
                    pending, have = [], 0
    if pending:
        yield set_batch(n_gen, n_edge, pending)


def _packed(net: Network, size: int) -> tuple[SetBatch, ...] | None:
    """The :func:`_chunks` of ``net`` at ``size``, or None once they hold
    more than :data:`CACHED_BYTES`."""
    chunks, held = [], 0
    for batch in _chunks(net, size):
        held += sum(map(sys.getsizeof, (batch, batch.rows, batch.cols, batch.slots,
                                        batch.bounds, batch.at)))
        if held > CACHED_BYTES:
            return None
        chunks.append(batch)
    return tuple(chunks)


def _scan(net: Network, loads: Sequence[int]) -> Iterator[Solved]:
    """The one pass over the candidate sets in lexicographic order: yields
    each chunk's independent sets, solved for the load columns ``loads``, as
    the :class:`~opfsens.jacobian.Solved` of :func:`reduced_solve`; with no
    ``loads`` nothing is solved. The chunks are :func:`_chunks` of ``CHUNK``
    sets over the live branches, packed on the first scan at that ``CHUNK``
    and kept in :data:`_LAYOUTS`, or built as the scan goes past
    :data:`CACHED_BYTES`. Each set gets the numbers of its own block, so no
    result depends on the chunking."""
    size, chunks = _LAYOUTS.get(net, (None, None))
    if size != CHUNK:
        chunks = _packed(net, CHUNK)
        _LAYOUTS[net] = CHUNK, chunks
    for batch in _chunks(net, CHUNK) if chunks is None else chunks:
        solved = reduced_solve(net, batch, loads)
        if len(solved):
            yield solved


def _fold(
    net: Network,
    loads: Sequence[int],
    gens: Sequence[int],
    norm: bool = False,
    all_ties: bool = False,
) -> tuple[np.ndarray, list[list[tuple[float, BindingSet]]], int]:
    """Reduce the scan under the tie rule.

    The reported entries are the Jacobian rows ``gens`` restricted to the
    load columns ``loads``: ``|J[v, l]|`` for each ``v`` in ``gens`` and
    each column, row-major, or with ``norm`` the Euclidean norm of each
    row. Returns the maxima ``(m,)``, the kept ``(value, set)`` list of each
    entry, whose first set is the argmax, and the number of independent
    sets. The argmax beats every set before it, so only such records within
    :data:`TIE_TOL` of the running maximum are kept; with ``all_ties`` every
    set within :data:`TIE_TOL` of it is. A chunk is folded only into its
    live columns, those whose chunk maximum can set a record: above
    ``best``, or with ``all_ties`` within :data:`TIE_TOL` of it. With many
    ``|J|`` entries (the table), the chunk maxima come run by run
    (``Solved.abs_max``) and per-set values for live columns only. A single
    entry (a pair, its ties) or a norm is read for every set: on the one- or
    two-chunk stage scans of a decomposition it is live in most chunks, so
    run maxima would add numpy calls and save none.
    """
    gens = np.asarray(gens, dtype=np.intp)
    if norm:
        entry_gens, entry_loads = gens, None
    else:  # row-major: entry i * len(loads) + l is generator gens[i], load column l
        entry_gens = np.repeat(gens, len(loads))
        entry_loads = np.tile(np.arange(len(loads)), len(gens))
    best = np.full(len(entry_gens), -np.inf)
    kept: list[list[tuple[float, BindingSet]]] = [[] for _ in best]
    by_run = not norm and len(best) > 1
    valid = 0
    for solved in _scan(net, loads):
        valid += len(solved)
        if by_run:
            top = solved.abs_max(gens).reshape(-1)
        else:
            vals = solved.values(entry_gens, entry_loads)
            top = vals.max(axis=0)
        live = np.flatnonzero(top >= best - TIE_TOL if all_ties else top > best)
        if not live.size:
            continue
        if by_run:
            vals = solved.values(entry_gens[live], entry_loads[live])
        else:
            vals = vals[:, live]
        running = np.maximum.accumulate(np.vstack([best[live], vals]))
        floor = running[-1] - TIE_TOL
        take = vals >= floor
        if not all_ties:
            take &= vals > running[:-1]
        for c in np.flatnonzero(running[-1] > running[0]):
            p = live[c]
            kept[p] = [entry for entry in kept[p] if entry[0] >= floor[c]]
        ts, cs = np.nonzero(take)
        for p, value, bset in zip(live[cs].tolist(), vals[ts, cs].tolist(), solved.sets(ts)):
            kept[p].append((value, bset))
        best[live] = running[-1]
    if not valid:
        raise NoValidSet("no independent binding set exists for this network")
    return best, kept, valid


def enumerate_binding_sets(net: Network) -> Iterator[BindingSet]:
    """Yield every independent binding set in lexicographic order."""
    for solved in _scan(net, ()):
        yield from solved.sets()


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


def worst_case_siso(net: Network, gen: int, load: int) -> tuple[float, BindingSet]:
    """Worst-case sensitivity of one generator-load pair and its argmax.

    ``gen`` and ``load`` are zero-based internal indices (load ``j`` is bus
    ``n_gen + j``).
    """
    net.check_pair(gen, load)
    best, kept, _ = _fold(net, [load], [gen])
    return float(best[0]), kept[0][0][1]


def worst_case_miso(net: Network, gen: int, loads: Sequence[int]) -> tuple[float, BindingSet]:
    """Worst-case sensitivity of one generator to joint perturbations of a
    load set: the Euclidean norm of the Jacobian row restricted to ``loads``,
    maximized over binding sets (the exact Lipschitz constant of the linear
    response under 2-norm perturbations confined to those loads). A
    ``loads`` that is not iterable, or a member that is not a load index,
    raises :class:`InvalidIndex`."""
    try:
        loads = tuple(loads)
    except TypeError:
        raise InvalidIndex(f"load set {loads!r} is not a collection of load indices") from None
    if not loads:
        raise EmptyLoadSet("MISO sensitivity needs at least one load index")
    for j in loads:
        net.check_pair(gen, j)
    best, kept, _ = _fold(net, sorted(set(loads)), [gen], norm=True)
    return float(best[0]), kept[0][0][1]


def worst_case_all(net: Network) -> SensitivityReport:
    """Worst cases for every pair in one enumeration pass."""
    n_l = net.n_load
    best, kept, valid = _fold(net, range(n_l), range(net.n_gen))
    return SensitivityReport(
        cwc=best.reshape(net.n_gen, n_l),
        argmax=tuple(tuple(kept[i * n_l + j][0][1] for j in range(n_l)) for i in range(net.n_gen)),
        candidates_total=candidate_count(net),
        candidates_valid=valid,
    )


def tied_argmax_sets(net: Network, gen: int, load: int) -> tuple[float, BindingSet, list[BindingSet]]:
    """Worst case, its argmax, and every set tied within :data:`TIE_TOL`, in
    lexicographic order; the argmax is the first of them.

    Degenerate maxima are common (a binding leaf branch is indistinguishable
    from binding the generator behind it), so reports list all of them.
    """
    net.check_pair(gen, load)
    best, kept, _ = _fold(net, [load], [gen], all_ties=True)
    ties = [bset for _, bset in kept[0]]
    return float(best[0]), ties[0], ties
