"""Binding-set Jacobian of the dispatch operator.

Given the set of binding generators and the set of binding branches (which
together must have ``n_gen - 1`` members), the optimal generation response
to load changes is a fixed linear map determined purely by the graph. It is
read off the inverse of the square row stack ``Z``::

    [ load rows of L          ]
    [ binding-gen rows of L   ]      (n_bus x n_bus)
    [ binding rows of B C'    ]
    [ e_1'                    ]

The first block pins nodal balance at load buses, the middle blocks pin the
binding quantities, and the last row pins the reference angle: together they
determine the angles, hence all generations. The map is independent of which
side (upper or lower) each constraint binds, because a bound value only
shifts the affine offset, never the coefficient row.

The package never factors that stack. Its load rows and reference row leave
the generator outputs free subject to their sum, so take the lowest free
generator ``r`` as the reference and the transfers from the other
generators to ``r`` as unknowns
(:attr:`~opfsens.network.Network.ptdf_basis`). A binding generator fixes
its own transfer at zero, which deletes that unknown exactly. What remains
is the ``t x t`` block ``B`` of the binding branches' transfer PTDFs on the
free generators other than ``r``, ``t = n_gen - 1 - |gens|``. The stack is
invertible exactly when ``B`` is, and with ``P`` the branches' PTDFs of a
transfer from each load to ``r``::

    y = B^-1 P,   J[free g] = y[g],   J[binding g] = 0,   J[r] = 1 - sum(y)

The independence test is the pivot ratio of ``B``
(:func:`linalg.lu_factor_checked`); a set that binds a branch outside
:func:`live_branches` has a row of ``B`` of rounding noise and fails it,
and one that binds two branches of one :func:`series_classes` class has
two parallel rows, flows in a passive two-terminal region, each a multiple
of the angle difference of its ends. Both are singular in exact
arithmetic, so the scan skips them by the graph alone, before rounding can
fool the pivot test. The scan tests and solves batches of sets through
:func:`reduced_solve`, the one owner of the factors, and
:func:`independence_check` and :func:`jacobian_from_binding`, after the
same two rules, one helper's batch of one set, so they agree by
construction. It gathers each passed set's ``P`` rows in the row order of
its factors and returns a :class:`Solved` of the sets that pass: their
pool rows and ``y`` as solved, with a map from generators to rows of
``y``, not assembled Jacobians. The scan reads maxima, values and the sets it reports through
its methods, and :meth:`Solved.jacobian_rows` assembles ``J``.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Sequence

import numpy as np

from . import linalg
from .errors import CardinalityViolation, DependentBindings
from .network import Network, strict_index


def _increasing(s: Sequence[int]) -> bool:
    return all(map(operator.lt, s, s[1:]))


@dataclass(frozen=True, order=True, slots=True)
class BindingSet:
    """Ordered index sets of binding generators and branches.

    Each member sequence is stored as a tuple, so a set built from lists
    hashes and compares as one built from tuples; one that is not iterable
    raises :class:`CardinalityViolation`. Slotted: reports and tie lists
    hold thousands of them.
    """

    gens: tuple[int, ...]
    branches: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("gens", "branches"):
            try:  # a tuple passes through as the same object
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise CardinalityViolation(
                    f"{name} {getattr(self, name)!r} is not a sequence of indices") from None
        if not _increasing(self.gens):
            raise CardinalityViolation(f"generator set {self.gens} not strictly increasing")
        if not _increasing(self.branches):
            raise CardinalityViolation(f"branch set {self.branches} not strictly increasing")

    @property
    def size(self) -> int:
        return len(self.gens) + len(self.branches)

    def describe(self, net: Network) -> dict:
        """Network-label view: generator bus labels and branch endpoint pairs.
        Raises :class:`CardinalityViolation` unless the set fits ``net``."""
        _check_cardinality(net, self)
        return {
            "generators": [net.vertex_order[i] for i in self.gens],
            "branches": [list(net.edge_label(e)) for e in self.branches],
        }


@lru_cache(maxsize=4096)
def interned_binding_set(gens: tuple[int, ...], branches: tuple[int, ...]) -> BindingSet:
    """The shared :class:`BindingSet` of ``(gens, branches)``: each set the
    package reports is one validated object per distinct set, kept while it
    is among the 4096 most recently asked for."""
    return BindingSet(gens, branches)


def _check_cardinality(net: Network, bset: BindingSet) -> None:
    if bset.size != net.n_gen - 1:
        raise CardinalityViolation(
            f"binding set has {bset.size} members, expected n_gen - 1 = {net.n_gen - 1}"
        )
    for what, members, size in (("generator", bset.gens, net.n_gen),
                                ("branch", bset.branches, net.n_edge)):
        try:
            indices = [strict_index(v) for v in members]
        except TypeError:
            raise CardinalityViolation(f"{what} indices {members} not all integers") from None
        if indices and not (indices[0] >= 0 and indices[-1] < size):
            raise CardinalityViolation(f"{what} indices {members} not all in range({size})")


def pool_rows(net: Network, bset: BindingSet) -> np.ndarray:
    """Indices of a binding set's rows in the PTDF pool: its generators,
    then ``n_gen`` plus each branch."""
    _check_cardinality(net, bset)
    return np.array(bset.gens + tuple(net.n_gen + e for e in bset.branches), dtype=np.intp)


#: a run of candidate rows that all bind the generator subset ``gens``
Part = tuple[tuple[int, ...], np.ndarray]


@dataclass(frozen=True, slots=True)
class SetBatch:
    """Candidate sets laid out for :func:`reduced_solve`, for one network
    shape.

    ``rows`` holds the :func:`pool_rows` of one set per row, ``(count,
    n_gen - 1)``. The sets come in groups, runs that bind the same
    generators; group ``g`` holds sets ``bounds[g]`` to ``bounds[g + 1]``
    (exclusive), ``(groups + 1,)``. Every set's block is
    ``n x n``, ``n`` the largest ``t`` in the batch: its branch rows and the
    free generators other than its reference first, then, for a set with a
    smaller ``t``, unit rows of some of its binding generators on the
    diagonal. ``cols[g]`` holds the generators of group ``g``'s block
    columns, then its reference, ``(groups, n + 1)``, and ``slots[g, v]``
    the row of the solution (:class:`Solved`) that holds generator ``v``'s
    Jacobian row: ``i`` for ``cols[g, i]``, ``n + 1``, the zero row, for any
    other generator, ``(groups, n_gen)``. ``at[i, s]`` is the offset of
    block row ``i`` of set ``s`` in a table of ``n_gen + n_edge`` pool rows
    per group: the group times the pool size plus the row's pool row, ``(n,
    count)``. ``rows`` and ``at`` are each stored in the smallest integer
    dtype that holds their largest value (``numpy.min_scalar_type``), often
    ``uint8`` and ``uint16``, so a cached layout stays small; arithmetic
    on them needs ``intp`` operands, or it keeps the small dtype and wraps.
    """

    rows: np.ndarray
    cols: np.ndarray
    slots: np.ndarray
    bounds: np.ndarray
    at: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def set_batch(n_gen: int, n_edge: int, parts: Sequence[Part]) -> SetBatch:
    """The :class:`SetBatch` of candidate sets on networks with ``n_gen``
    generators and ``n_edge`` branches, given as ``parts``: runs of
    :func:`pool_rows` rows that each bind the generators ``gens``. A batch
    of one group is unpadded, each block its set's own ``t x t`` one."""
    n_pool = n_gen + n_edge
    width = n_gen - 1 - min(len(gens) for gens, _ in parts)
    rows = np.concatenate([part for _, part in parts], dtype=np.intp)
    groups = [(gens, sum(len(part) for _, part in run))
              for gens, run in groupby(parts, key=operator.itemgetter(0))]
    cols = np.empty((len(groups), width + 1), np.intp)
    bounds = np.empty(len(groups) + 1, np.intp)
    at = np.empty((width, len(rows)), np.intp)
    start = 0
    for g, (gens, count) in enumerate(groups):
        stop = start + count
        r, others = _free(n_gen, gens)
        pads = gens[: width - len(others)]
        cols[g] = others + list(pads) + [r]
        bounds[g] = start
        np.add(rows[start:stop, len(gens) :].T, g * n_pool, out=at[: len(others), start:stop])
        at[len(others) :, start:stop] = np.add(pads, g * n_pool)[:, None]
        start = stop
    bounds[-1] = start
    slots = np.full((len(groups), n_gen), width + 1, np.intp)
    slots[np.arange(len(groups))[:, None], cols] = np.arange(width + 1)
    return SetBatch(rows=_compact(rows), cols=cols, slots=slots, bounds=bounds, at=_compact(at))


def _free(n_gen: int, gens: Sequence[int]) -> tuple[int, list[int]]:
    """The reference of a set that binds the generators ``gens``, its lowest
    free generator, and the other free generators, ascending."""
    r, *others = (v for v in range(n_gen) if v not in gens)
    return r, others


def live_branches(net: Network, gens: Sequence[int]) -> np.ndarray:
    """The live branches of the sets that bind the generators ``gens``,
    ascending: those on a simple path between two free generators, whose
    block they meet at different buses (:attr:`Network.sides`). No transfer
    between free generators crosses a dead branch, so a set that binds one
    has a block row of rounding noise, which the independence test rejects."""
    r, others = _free(net.n_gen, gens)
    return np.flatnonzero((net.sides[others] != net.sides[r]).any(axis=0))


#: each network's :func:`series_classes`, by generator subset, dropped
#: with the network
_CLASSES: weakref.WeakKeyDictionary[
    Network, dict[tuple[int, ...], np.ndarray]] = weakref.WeakKeyDictionary()


def series_classes(net: Network, gens: Sequence[int]) -> np.ndarray:
    """The series class of each branch for the sets that bind the
    generators ``gens``, ``(n_edge,)``, read-only, cached with the network:
    -1 on a branch outside :func:`live_branches`, else the least live branch
    of its class. A two-terminal region of :attr:`Network.separations`
    whose component holds no free generator carries no injection, so every
    transfer's flow on each of its branches is a fixed multiple of the
    angle difference of its two ends: its live branches have parallel block
    rows and share a class, and classes that share a branch merge. The
    table's row of the branches that join one bus pair holds no generator,
    so they share a class for every subset. A set that binds two branches
    of a class is singular in exact arithmetic. Any other bus pair whose
    removal leaves one component is not in the table: that component is
    passive only when no more than two generators are free, and then no
    set binds two branches."""
    cache = _CLASSES.setdefault(net, {})
    key = tuple(gens)
    if (classes := cache.get(key)) is None:
        live = live_branches(net, key)
        held, edges = net.separations
        free = np.ones(net.n_gen, bool)
        free[list(key)] = False
        members = edges[~held[:, free].any(axis=1)][:, live]
        label, grown, top = None, np.arange(len(live)), len(live)
        while not np.array_equal(label, grown):  # each class takes its least position
            label = grown
            least = np.where(members, label, top).min(axis=1, initial=top)
            grown = np.minimum(label, np.where(members.T, least, top).min(axis=1, initial=top))
        classes = np.full(net.n_edge, -1, np.intp)
        classes[live] = live[label]
        classes.setflags(write=False)
        cache[key] = classes
    return classes


def _compact(a: np.ndarray) -> np.ndarray:
    """The nonnegative integers ``a`` in the smallest dtype that holds
    their largest value."""
    return a.astype(np.min_scalar_type(a.max(initial=0)))


@dataclass(frozen=True, slots=True)
class Solved:
    """The sets of a batch that pass :func:`reduced_solve`, in batch order:
    their :func:`pool_rows`, ``rows``, ``(sets, n_gen - 1)``, and ``y``,
    ``(n + 2, loads, sets)``, the solutions of the ``n`` block rows, then
    the reference row ``1 - y_0 - y_1 - ...``, then a row of zeros. The
    sets come in the batch's groups, runs that bind the same generators:
    run ``k`` holds sets ``bounds[k]`` to ``bounds[k + 1]`` (exclusive, and
    empty where no set of the group passed), and ``slots[k, v]`` is the row
    of ``y`` that holds row ``v`` of its sets' Jacobians, ``(runs, n_gen)``.
    """

    rows: np.ndarray
    y: np.ndarray
    slots: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def sets(self, which: np.ndarray | slice = slice(None)) -> list[BindingSet]:
        """The interned :class:`BindingSet` of each set ``which``, in order,
        in one conversion: the inverse of :func:`pool_rows`."""
        rows, n_gen = self.rows[which].astype(np.intp), self.slots.shape[1]
        is_gen = rows < n_gen
        n_gens = is_gen.sum(axis=1).tolist()
        rows = np.where(is_gen, rows, rows - n_gen).tolist()
        return [interned_binding_set(tuple(r[:c]), tuple(r[c:])) for r, c in zip(rows, n_gens)]

    def set_slots(self, gens: Sequence[int]) -> np.ndarray:
        """The rows of ``y`` that hold the Jacobian rows ``gens`` of each
        set, ``(sets, len(gens))``."""
        return np.repeat(self.slots[:, gens], self.bounds[1:] - self.bounds[:-1], axis=0)

    def jacobian_rows(self, gens: Sequence[int]) -> np.ndarray:
        """Rows ``gens`` of every set's Jacobian, ``(sets, len(gens),
        loads)``: the one place Jacobians are assembled from ``y``."""
        return self.y.transpose(2, 0, 1)[np.arange(len(self))[:, None], self.set_slots(gens)]

    def abs_max(self, gens: Sequence[int]) -> np.ndarray:
        """The largest ``|J[v, l]|`` of the sets for each ``v`` in ``gens``
        and each load column ``l``, ``(len(gens), loads)``, from the largest
        ``|y|`` of each run: the Jacobians are not assembled."""
        runs = np.flatnonzero(np.diff(self.bounds))  # reduceat needs no empty run
        top = np.maximum.reduceat(np.abs(self.y), self.bounds[runs], axis=2)  # (n + 2, loads, runs)
        cells = np.arange(len(runs))[:, None], self.slots[runs[:, None], gens]
        return top.transpose(2, 0, 1)[cells].max(axis=0)

    def values(self, gens: np.ndarray, loads: np.ndarray | None) -> np.ndarray:
        """Each set's value of the entries on Jacobian rows ``gens``,
        ``(sets, len(gens))``: ``|J[gens[c], loads[c]]|`` of entry ``c``, or
        with no ``loads`` the Euclidean norm of row ``gens[c]``."""
        if loads is None:
            return np.linalg.norm(self.jacobian_rows(gens), axis=2)
        return np.abs(self.y[self.set_slots(gens), loads, np.arange(len(self))[:, None]])


def reduced_solve(net: Network, batch: SetBatch, loads: Sequence[int]) -> Solved:
    """Test a :class:`SetBatch` of candidate sets and solve those that pass.

    Returns the :class:`Solved` of the sets whose block ``B`` passes
    :func:`linalg.lu_factor_checked`: their pool rows, and their solutions
    for the load columns ``loads`` only; with no loads nothing is solved. A
    group's transfer PTDFs are the rows of
    :attr:`~opfsens.network.Network.ptdf_basis` at its block columns' buses,
    or at the load buses, minus the row at its reference: each group's are
    computed once per call, and every set's ``B`` and ``P`` are gathered
    from them. The solve ``y = B^-1 P`` reuses the factors the test judged:
    each set's gather index is put in the row order of its factors, so ``P``
    arrives in pivot order. The padding rows are zero in the block's own columns and one on the
    diagonal, so the padded matrix is block upper triangular: they take
    multipliers of zero and pivots of 1, and their right-hand sides and
    solution entries are zero. Every set gets the pivots and solution of its
    own ``t x t`` block, whatever the batch, up to the sign of a zero. The
    reference row is ``1 - y_0 - y_1 - ...``, subtracted left to right. Each
    column is computed on its own: a subset of ``loads`` gives the same
    columns bit for bit.
    """
    by_bus = net.ptdf_basis
    n_gen, n = net.n_gen, len(batch.at)
    loads = np.asarray(loads, dtype=np.intp)
    ref = by_bus.take(batch.cols[:, n], axis=0)[:, None]

    def gathered(buses: np.ndarray, at: np.ndarray) -> np.ndarray:
        """``[bus, i, s]``: each set's group table at ``buses`` and its rows."""
        table = by_bus.take(buses, axis=0) - ref  # (groups, buses, n_pool)
        return table.transpose(1, 0, 2).reshape(table.shape[1], ref.size).take(at, axis=1)

    # gathered (column, row, set), factored from a transposed view
    blocks = gathered(batch.cols[:, :n], batch.at).transpose(1, 0, 2)
    lu, order, ok = linalg.lu_factor_checked(blocks)
    passed = np.flatnonzero(ok)
    y = np.empty((n + 2, loads.size, passed.size))
    y[n + 1] = 0.0
    solved = Solved(rows=batch.rows.take(passed, axis=0), y=y, slots=batch.slots,
                    bounds=passed.searchsorted(batch.bounds))
    if not (passed.size and loads.size):
        return solved
    # one flat take: at[order[i, s], s] for each passed set s, batch axis last
    at = batch.at.reshape(-1).take(order[:, passed] * len(batch) + passed)
    y[:n] = gathered(n_gen + loads, at).transpose(1, 0, 2)
    linalg.lu_solve_factored(lu.take(passed, axis=2), y[:n])
    np.subtract.reduce(y[:n], axis=0, initial=1.0, out=y[n])
    return solved


def _solve_set(net: Network, bset: BindingSet, loads: Sequence[int]) -> Solved | None:
    """:func:`reduced_solve` of the one-set batch of ``bset``, or None for a
    set the scan skips: one that binds a dead branch or two branches of one
    :func:`series_classes` class."""
    rows = pool_rows(net, bset)
    classes = series_classes(net, bset.gens)[list(bset.branches)].tolist()
    if -1 in classes or len(set(classes)) < len(classes):
        return None
    return reduced_solve(net, set_batch(net.n_gen, net.n_edge, [(bset.gens, rows[None])]), loads)


def independence_check(net: Network, bset: BindingSet) -> bool:
    """True when the set's reduced block passes the project independence
    test, the one the set scan applies.

    Because the full stack always contains the (always-binding) equality
    rows, invertibility coincides with row-independence of the binding rows
    in the doubled-inequality standard form.
    """
    return bool(_solve_set(net, bset, ()))


@dataclass(frozen=True)
class JacobianResult:
    """Sensitivity matrix of one binding set.

    ``jac[i, j]`` is the derivative of generation ``i`` with respect to load
    ``j`` inside the active-set region; rows indexed by binding generators
    vanish and every column sums to one (lossless balance, differentiated).
    """

    jac: np.ndarray      # n_gen x n_load


def jacobian_from_binding(net: Network, bset: BindingSet) -> JacobianResult:
    """Closed-form Jacobian of optimal generation w.r.t. loads for one set,
    the load-column block of ``-G`` times the stack inverse, from the set's
    reduced block (module docstring). Raises :class:`DependentBindings` when
    the scan skips the set or its block fails the independence test.
    """
    solved = _solve_set(net, bset, range(net.n_load))
    if not solved:
        raise DependentBindings(
            f"binding set gens={bset.gens} branches={bset.branches} is dependent: "
            "the scan skips it or its reduced block fails the independence test"
        )
    return JacobianResult(jac=solved.jacobian_rows(range(net.n_gen))[0].copy())
