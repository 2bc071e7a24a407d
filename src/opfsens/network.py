"""Power network model: vertex-partitioned graph, incidence/Laplacian matrices,
operating limits, and construction from MATPOWER cases or chained copies.

Internal vertex order is always generators first (indices ``0..n_gen-1``),
then loads. A MATPOWER case sorts each group by bus label; a chain orders
each group copy-major, and a decomposition stage keeps the order it is
given. Edges keep declaration order; the incidence column of edge ``(u, v)``
is ``+1`` at ``u`` and ``-1`` at ``v``.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DanglingReference,
    DimensionMismatch,
    DisconnectedChain,
    DisconnectedGraph,
    DuplicateGeneratorBus,
    InvalidIndex,
    InvalidLimits,
    InvalidTie,
    SelfLoop,
    ZeroReactance,
)
from .matpower import MatpowerCase

logger = logging.getLogger(__name__)

# per-unit stand-in for MATPOWER's rate_a = 0 ("unlimited") convention
UNLIMITED_FLOW_PU = 10.0

Label = int | str


def strict_index(value) -> int:
    """``value`` as an ``int`` when :func:`operator.index` accepts it and it
    is not a bool, else ``TypeError``: the package's one reading of an
    index, a count or a copy number."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def float_array(value) -> np.ndarray:
    """``value`` as a float array, the package's one reading of a vector of
    numbers: ``TypeError``, ``ValueError`` or ``OverflowError`` when numpy
    cannot read it as numbers, and ``TypeError`` for text and bools, which
    numpy would read as numbers (``"0.5"`` as 0.5, ``True`` as 1.0). An
    array is judged by its dtype, anything else element by element, so a
    bool among floats is refused too."""
    given = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    if given.dtype.kind in "USb" or (given.dtype.kind == "O" and any(
            isinstance(v, (str, bytes, bool, np.bool_)) for v in given.flat)):
        raise TypeError("text and bools are not numbers")
    return np.asarray(value, dtype=float)


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable graph model with precomputed matrices.

    Networks compare and hash by identity: their array fields have no
    elementwise ``==`` to derive one from, and per-network caches
    (:mod:`~opfsens.decompose`) key on them.

    Attributes
    ----------
    n_gen, n_load:
        Vertex partition sizes; ``n_bus = n_gen + n_load``.
    vertex_order:
        Internal index -> original bus label.
    edges:
        ``(u, v, susceptance)`` triples with internal vertex indices.
    incidence:
        ``n_bus x n_edge`` matrix, ``+1`` at ``u``, ``-1`` at ``v``.
    susceptances:
        Positive per-edge susceptance vector (per-unit).
    laplacian:
        ``incidence @ diag(susceptances) @ incidence.T``.
    flow_matrix:
        ``diag(susceptances) @ incidence.T``; row ``e`` maps angles to the
        flow on edge ``e``.
    """

    n_gen: int
    n_load: int
    vertex_order: tuple[Label, ...]
    edges: tuple[tuple[int, int, float], ...]
    incidence: np.ndarray
    susceptances: np.ndarray
    laplacian: np.ndarray
    flow_matrix: np.ndarray

    @property
    def n_bus(self) -> int:
        return self.n_gen + self.n_load

    @property
    def n_edge(self) -> int:
        return len(self.edges)

    def index_of(self, label: Label) -> int:
        try:
            return self.vertex_order.index(label)
        except ValueError:
            raise KeyError(f"no bus labeled {label!r}") from None

    def edge_label(self, e: int) -> tuple[Label, Label]:
        u, v, _ = self.edges[e]
        return self.vertex_order[u], self.vertex_order[v]

    def check_pair(self, gen: int, load: int) -> None:
        """Raise :class:`InvalidIndex` unless ``gen`` is a generator index
        and ``load`` a load index (load ``j`` is bus ``n_gen + j``), each an
        integer that :func:`strict_index` accepts."""
        for what, i, n in (("generator", gen, self.n_gen), ("load", load, self.n_load)):
            try:
                i = strict_index(i)
            except TypeError:
                raise InvalidIndex(f"{what} index {i!r} is not an integer") from None
            if not 0 <= i < n:
                raise InvalidIndex(f"{what} index {i} out of range")

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The ``(neighbor, edge index)`` pairs of each bus, in edge order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_bus)]
        for e, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return tuple(map(tuple, adj))

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The biconnected blocks, read off one :func:`_low_links` walk of
        the network from bus 0: ``(block, heads, tree)``, the block of each
        edge, each block's first bus reached, and the buses in preorder, each
        with the edge it came by (-1 at bus 0). A tree edge into ``c`` from
        ``p`` opens a block headed by ``p`` when ``low[c] >= disc[p]``, else
        it joins ``p``'s; any other edge joins the block of its deeper end's
        entry edge, so a doubled edge is a block of two. Blocks are numbered
        in preorder. :class:`DisconnectedGraph` when there is no bus or the
        walk spans more than one component.
        """
        disc, low, _, _, order, spans, entry = _low_links(self.adjacency)
        if len(spans) != 1:
            raise DisconnectedGraph("network has no buses" if not spans
                                    else "network graph is not connected")
        block = [-1] * self.n_edge
        heads: list[int] = []
        for c in order[1:]:
            p = sum(self.edges[entry[c]][:2]) - c  # the other end of c's entry edge
            if low[c] >= disc[p]:
                block[entry[c]] = len(heads)
                heads.append(p)
            else:
                block[entry[c]] = block[entry[p]]
        for e, (u, w, _) in enumerate(self.edges):
            if block[e] == -1:
                block[e] = block[entry[max(u, w, key=disc.__getitem__)]]
        return tuple(block), tuple(heads), tuple((v, entry[v]) for v in order)

    @cached_property
    def bridges(self) -> tuple[int, ...]:
        """Bridge edge indices, ascending: the blocks of one edge."""
        size = Counter(self.blocks[0])
        return tuple(e for e, b in enumerate(self.blocks[0]) if size[b] == 1)

    @cached_property
    def sides(self) -> np.ndarray:
        """``(n_bus, n_edge)``, read-only, built on first use: ``sides[v, e]``
        is the bus at which bus ``v`` meets edge ``e``'s block, the one it
        reaches without the block's edges (``v`` itself on the block). Two
        buses meet a block at different buses exactly when a simple path
        between them runs through each of its edges. A bus meets each block
        where its DFS parent does but the one it came by; bus 0 at its head.
        """
        block, heads, tree = self.blocks
        at = np.empty((self.n_bus, len(heads)), np.intp)
        at[:] = heads
        for v, e in tree[1:]:
            u, w, _ = self.edges[e]
            at[v] = at[u + w - v]
            at[v, block[e]] = v
        sides = at[:, block]
        sides.setflags(write=False)
        return sides

    @cached_property
    def separations(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gens, edges)``, read-only, built on first use: the
        two-terminal regions. ``gens`` marks each region's generators,
        ``(regions, n_gen)``, and ``edges`` its edges, ``(regions, n_edge)``.
        The edges joining one bus pair, where there are two or more, are a
        region without generators. For each separation pair ``{a, b}``, a
        bus pair whose removal leaves more than one component (Hopcroft and
        Tarjan, SIAM J. Comput. 1973), each such component ``C`` that meets
        both ``a`` and ``b`` is a region: the generators in ``C``, the edges
        with an end in ``C`` and the ``a``-``b`` edges. Rows are distinct and
        hold at least two edges. One :func:`_low_links` walk of the network
        less each bus ``a`` gives every ``b`` and its components, as runs of
        its preorder.
        """
        n, m = self.n_bus, self.n_edge
        us, vs = np.sort(np.array([e[:2] for e in self.edges], np.intp).reshape(m, 2), axis=1).T
        near = np.zeros((n, n), bool)
        near[us, vs] = near[vs, us] = True
        found = [np.zeros((m, self.n_gen + m), bool)]  # first each bus pair's joining edges
        found[0][np.unique(us * n + vs, return_inverse=True)[1], self.n_gen + np.arange(m)] = True
        for a in range(n):
            disc, low, size, kids, order, spans, _ = _low_links(self.adjacency, a)
            ends, marks = [], []  # each region's b, and its (region, position, +-1) marks
            for b in range(a + 1, n):
                lo, hi = next(span for span in spans if span[0] <= disc[b] < span[1])
                cut = [(disc[c], disc[c] + size[c]) for c in kids[b]
                       if disc[b] == lo or low[c] >= disc[b]]
                # the other components of the network less a, the subtrees cut at b
                parts = [[(s, 1), (t, -1)] for s, t in spans + cut if s != lo]
                if disc[b] != lo:  # the rest of b's run, less b and the cut subtrees
                    parts.append([(lo, 1), (hi, -1), (disc[b], -1), (disc[b] + 1, 1)]
                                 + [mark for s, t in cut for mark in ((s, -1), (t, 1))])
                if len(parts) > 1:
                    marks += [(len(ends) + k, *mark)
                              for k, part in enumerate(parts) for mark in part]
                    ends += [b] * len(parts)
            if not ends:
                continue
            marks = np.array(marks)
            runs = np.zeros((len(ends), n), np.intp)
            np.add.at(runs, (marks[:, 0], marks[:, 1]), marks[:, 2])
            inside = np.zeros((len(ends), n), bool)
            inside[:, order] = runs.cumsum(axis=1)[:, : n - 1] > 0
            ends = np.array(ends)
            joins = (us == a) & (vs == ends[:, None])
            keep = inside[:, near[a]].any(axis=1) & (inside & near[ends]).any(axis=1)
            edges = inside[:, us] | inside[:, vs] | joins
            found.append(np.hstack([inside[:, : self.n_gen], edges])[keep])
        table = np.concatenate(found)
        table = table[table[:, self.n_gen :].sum(axis=1) > 1]
        packed = np.packbits(table, axis=1)  # one bytes key per row, for a fast unique
        keys = packed.view(np.dtype((np.void, packed.shape[1])))
        table = table[np.sort(np.unique(keys.ravel(), return_index=True)[1])]
        gens, edges = table[:, : self.n_gen], table[:, self.n_gen :]
        for arr in (gens, edges):
            arr.setflags(write=False)
        return gens, edges

    @cached_property
    def ptdf_basis(self) -> np.ndarray:
        """The rows a binding set picks from, in a PTDF basis, computed on
        first use: ``(n_bus, n_gen + n_edge)``, read-only.

        The pool is the generator rows of the Laplacian followed by the flow
        matrix, and ``X`` the inverse Laplacian grounded at bus 0. Row ``v``
        is the pool times ``X[:, v]``, the angles of a unit injection at bus
        ``v``; a unit transfer from ``v`` to generator ``r`` keeps every other
        bus balanced, so its pool rows are row ``v`` minus row ``r``, a
        difference callers take when they gather. Row 0 is zero, so at
        ``r = 0`` that is row ``v`` itself, bit for bit. The generator
        columns are exact (generator 0's is minus one off bus 0, as the
        Laplacian's columns sum to zero; generator ``g > 0``'s is the unit
        vector at ``g``), so referenced at ``r`` a binding generator fixes
        its own transfer at zero, and a binding branch's row holds transfer
        PTDFs of magnitude at most 1. The branch columns solve with the
        grounded Laplacian.
        """
        n_gen, n = self.n_gen, self.n_bus
        pool_x = np.zeros((n_gen + self.n_edge, n))
        if n_gen:  # without generators, the basis is the branch block alone
            pool_x[0, 1:] = -1.0
            pool_x[1:n_gen, 1:n_gen] = np.eye(n_gen - 1)
        pool_x[n_gen:, 1:] = np.linalg.solve(self.laplacian[1:, 1:], self.flow_matrix[:, 1:].T).T
        by_bus = np.ascontiguousarray(pool_x.T)
        by_bus.setflags(write=False)
        return by_bus


def _low_links(adj, a: int = -1):
    """The package's one graph walk: an iterative low-link DFS (Hopcroft
    and Tarjan, CACM 1973) of the graph with neighbour lists ``adj``, less
    bus ``a`` when one is given, from its least bus. Returns each bus's
    preorder position, low point and subtree size, its tree children, the
    buses in preorder, the ``(start, stop)`` run of each component and each
    bus's entry edge (-1 at a component's first bus). A child ``c`` of ``b``
    whose low point is not below ``b``'s position, or any child of a
    component's first bus, heads a component of the graph less ``a`` and
    ``b``: its subtree, the ``size[c]`` buses from position ``disc[c]``."""
    n = len(adj)
    disc = [n if v == a else -1 for v in range(n)]  # a is never entered
    low, size, entry = [0] * n, [1] * n, [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    spans: list[tuple[int, int]] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        start = disc[root] = low[root] = len(order)
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w, e in nbrs:
                if disc[w] == -1:
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    kids[v].append(w)
                    entry[w] = e
                    stack.append((w, iter(adj[w])))
                    break
                if w != a:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    size[u] += size[v]
        spans.append((start, len(order)))
    return disc, low, size, kids, order, spans, entry


@dataclass(frozen=True)
class OpfParams:
    """Generation cost vector and operating limits, all per-unit.

    Each field is stored as a float array: a float array as the same object,
    any other sequence of numbers as a copy. A field that is not numbers
    (:func:`float_array`: text and bools are not) raises
    :class:`InvalidLimits`.
    """

    cost: np.ndarray
    gen_upper: np.ndarray
    gen_lower: np.ndarray
    flow_upper: np.ndarray
    flow_lower: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            try:
                arr = float_array(getattr(self, f.name))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidLimits(f"{f.name} is not an array of numbers: {exc}") from None
            object.__setattr__(self, f.name, arr)

    def validate(self, net: Network) -> None:
        for name, arr, want in (
            ("cost", self.cost, net.n_gen),
            ("gen_upper", self.gen_upper, net.n_gen),
            ("gen_lower", self.gen_lower, net.n_gen),
            ("flow_upper", self.flow_upper, net.n_edge),
            ("flow_lower", self.flow_lower, net.n_edge),
        ):
            if arr.shape != (want,):
                raise DimensionMismatch(f"{name} has shape {arr.shape}, want ({want},)")
            if not np.isfinite(arr).all():
                raise InvalidLimits(f"{name} has a non-finite entry")
        if np.any(self.gen_lower < 0):
            raise InvalidLimits("generator lower limits must be nonnegative")
        if np.any(self.gen_lower > self.gen_upper):
            raise InvalidLimits("generator lower limit exceeds upper limit")
        if np.any(self.flow_lower > self.flow_upper):
            raise InvalidLimits("flow lower limit exceeds upper limit")
        if np.any(self.cost < 0):
            raise InvalidLimits("costs must be nonnegative")


def assemble_network(
    gen_labels: Sequence[Label],
    load_labels: Sequence[Label],
    edges: Sequence[tuple[Label, Label, float]],
) -> Network:
    """Build a :class:`Network` from labeled vertices and edges, generators
    then loads in the order given.

    ``edges`` entries are ``(label_u, label_v, susceptance)``. Raises
    :class:`DisconnectedGraph` when the graph has no bus or is not
    connected (reading :attr:`Network.bridges` checks it),
    :class:`DimensionMismatch` for an edge that is not such a triple,
    :class:`ZeroReactance` for a susceptance that is not a finite positive
    real number (a bool is not one), :class:`DanglingReference` for an
    endpoint that is not among the labels and :class:`SelfLoop` for an edge
    from a bus to itself.
    """
    gens, loads = tuple(gen_labels), tuple(load_labels)
    order = gens + loads
    if len(set(order)) != len(order):
        raise DuplicateGeneratorBus(f"duplicate vertex labels in {order!r}")
    pos = {lab: i for i, lab in enumerate(order)}
    n, m = len(order), len(edges)

    incidence = np.zeros((n, m))
    b = np.zeros(m)
    idx_edges = []
    for e, edge in enumerate(edges):
        try:
            lu, lv, be = edge
        except (TypeError, ValueError):
            raise DimensionMismatch(f"edge {edge!r} is not a (u, v, susceptance) triple") from None
        if isinstance(be, bool) or not (isinstance(be, numbers.Real) and 0 < be < math.inf):
            raise ZeroReactance(
                f"edge ({lu!r},{lv!r}) has susceptance {be!r}, not finite and positive")
        try:
            u, v = pos[lu], pos[lv]
        except KeyError as exc:
            raise DanglingReference(
                f"edge ({lu!r},{lv!r}) refers to unknown bus {exc.args[0]!r}") from None
        if u == v:
            raise SelfLoop(f"edge ({lu!r},{lv!r}) joins a bus to itself")
        incidence[u, e] = 1.0
        incidence[v, e] = -1.0
        b[e] = be
        idx_edges.append((u, v, float(be)))

    flow_matrix = b[:, None] * incidence.T
    laplacian = incidence @ flow_matrix
    for arr in (incidence, b, laplacian, flow_matrix):
        arr.setflags(write=False)
    net = Network(
        n_gen=len(gens),
        n_load=len(loads),
        vertex_order=order,
        edges=tuple(idx_edges),
        incidence=incidence,
        susceptances=b,
        laplacian=laplacian,
        flow_matrix=flow_matrix,
    )
    net.bridges  # raises DisconnectedGraph
    return net


def build_network(case: MatpowerCase) -> tuple[Network, OpfParams]:
    """Convert a parsed MATPOWER case into per-unit network and limits.

    Susceptance is ``1/x`` divided by the branch's tap ratio, as in
    MATPOWER's DC model; all powers are divided by baseMVA; generator
    vertices come first, stably ordered by original bus id. The linear cost
    coefficient is taken from the polynomial cost table (a nonzero quadratic
    term is reported and dropped). A ``rate_a`` of zero is MATPOWER for
    "unlimited" and maps to ``+/-UNLIMITED_FLOW_PU``.
    """
    gen_buses = case.gen_buses
    if len(set(gen_buses)) != len(gen_buses):
        raise DuplicateGeneratorBus("two generators on one bus are unsupported")
    load_buses = [b for b in case.bus_ids if b not in set(gen_buses)]

    edges = []
    flow_up = np.empty(case.n_branch)
    for e, (u, v) in enumerate(case.branch_endpoints):
        x = case.branch_reactance(e)
        if x <= 0:
            raise ZeroReactance(f"branch {e} ({u},{v}) has reactance {x}")
        edges.append((u, v, 1.0 / x / case.branch_tap_ratio(e)))
        rate = case.branch_rate_a_mva(e)
        if rate == 0.0:
            logger.warning(
                "branch %d (%d,%d): rate_a = 0 treated as +/-%g p.u.", e, u, v, UNLIMITED_FLOW_PU
            )
            flow_up[e] = UNLIMITED_FLOW_PU
        else:
            flow_up[e] = rate / case.base_mva

    net = assemble_network(sorted(gen_buses), sorted(load_buses), edges)

    n_g = net.n_gen
    cost = np.empty(n_g)
    gen_up = np.empty(n_g)
    gen_lo = np.empty(n_g)
    decl_index = {b: g for g, b in enumerate(gen_buses)}
    for i in range(n_g):
        g = decl_index[net.vertex_order[i]]
        coeffs = case.cost_coefficients(g)
        linear = coeffs[-2] if len(coeffs) >= 2 else 0.0
        if len(coeffs) >= 3 and any(c != 0.0 for c in coeffs[:-2]):
            logger.warning(
                "generator %d: dropping nonlinear cost terms %s (linear model only)",
                g, coeffs[:-2],
            )
        cost[i] = linear
        pmin, pmax = case.gen_limits_mw(g)
        gen_up[i] = pmax / case.base_mva
        gen_lo[i] = pmin / case.base_mva
        if gen_lo[i] < 0:
            logger.warning("generator %d: clamping negative lower limit %g to 0", g, gen_lo[i])
            gen_lo[i] = 0.0

    params = OpfParams(
        cost=cost,
        gen_upper=gen_up,
        gen_lower=gen_lo,
        flow_upper=flow_up,
        flow_lower=-flow_up,
    )
    params.validate(net)
    return net, params


def nominal_loads(case: MatpowerCase, net: Network) -> np.ndarray:
    """Per-unit active demand of each load bus, in internal load order."""
    return np.array(
        [case.bus_demand_mw(net.vertex_order[net.n_gen + j]) / case.base_mva
         for j in range(net.n_load)]
    )


@dataclass(frozen=True)
class TieLine:
    """One chain tie: endpoints by (copy index, original bus label)."""

    from_copy: int
    from_bus: Label
    to_copy: int
    to_bus: Label
    susceptance: float | None = None
    flow_limit: float | None = None


def copy_label(bus: Label, copy: int) -> str:
    """Original label decorated with copy provenance: 4, 4', 4''. A negative
    copy raises :class:`InvalidTie`."""
    if copy < 0:
        raise InvalidTie(f"copy index {copy} of bus {bus!r} is negative")
    return str(bus) + "'" * copy


def build_chain(
    base: Network,
    base_params: OpfParams,
    copies: int,
    ties: Sequence[TieLine],
) -> tuple[Network, OpfParams]:
    """Chain ``copies`` identical copies of ``base`` joined by tie lines.

    Copy ``k`` gets labels suffixed with ``k`` prime marks. All generators of
    all copies come first in the internal order (copy-major); tie edges are
    appended after every copy's edges. A tie's susceptance and flow limit,
    given or inherited from the base network's first branch, must be finite
    and positive.

    Copies and copy indices are integers that :func:`strict_index` accepts,
    tie buses such integers or strings, and susceptance and flow limit real
    numbers or ``None``; a bool is none of these. Anything else raises
    :class:`InvalidTie`, as do ``ties`` that are not a collection of
    :class:`TieLine` and the range and value rules above.
    """
    copies = _chain_value(copies, "copies")
    if copies < 2:
        raise InvalidTie(f"a chain needs at least 2 copies, got {copies}")
    try:
        ties = tuple(ties)
    except TypeError:
        raise InvalidTie(f"ties {ties!r} is not a collection of tie lines") from None
    if not ties:
        raise InvalidTie("a chain needs at least one tie line")

    default_b = base.edges[0][2]
    default_limit = float(base_params.flow_upper[0])

    gen_labels: list[str] = []
    load_labels: list[str] = []
    edges: list[tuple[str, str, float]] = []
    for k in range(copies):
        gen_labels += [copy_label(base.vertex_order[i], k) for i in range(base.n_gen)]
        load_labels += [
            copy_label(base.vertex_order[base.n_gen + j], k) for j in range(base.n_load)
        ]
        for (u, v, b) in base.edges:
            edges.append((copy_label(base.vertex_order[u], k),
                          copy_label(base.vertex_order[v], k), b))

    tie_limits = []
    valid = set(base.vertex_order)
    for t in ties:
        if not isinstance(t, TieLine):
            raise InvalidTie(f"tie has type {type(t).__name__}: {t!r}")
        ends = []
        for copy, bus in ((t.from_copy, t.from_bus), (t.to_copy, t.to_bus)):
            copy, bus = _chain_value(copy, "tie copy"), _chain_value(bus, "tie bus", label=True)
            if not 0 <= copy < copies:
                raise InvalidTie(f"tie copy index {copy} outside 0..{copies - 1}")
            if bus not in valid:
                raise InvalidTie(f"tie bus {bus!r} not in the base network")
            ends.append(copy_label(bus, copy))
        b = _chain_value(t.susceptance, "tie susceptance", number=True)
        limit = _chain_value(t.flow_limit, "tie flow limit", number=True)
        b = default_b if b is None else b
        limit = default_limit if limit is None else limit
        if not (0 < b < math.inf and 0 < limit < math.inf):
            raise InvalidTie(
                f"tie susceptance {b} and flow limit {limit} must be finite and positive")
        edges.append((*ends, b))
        tie_limits.append(limit)

    try:
        net = assemble_network(gen_labels, load_labels, edges)
    except DisconnectedGraph as exc:
        raise DisconnectedChain(str(exc)) from exc

    params = OpfParams(
        cost=np.tile(base_params.cost, copies),
        gen_upper=np.tile(base_params.gen_upper, copies),
        gen_lower=np.tile(base_params.gen_lower, copies),
        flow_upper=np.concatenate([np.tile(base_params.flow_upper, copies), tie_limits]),
        flow_lower=np.concatenate(
            [np.tile(base_params.flow_lower, copies), [-l for l in tie_limits]]
        ),
    )
    params.validate(net)
    return net, params


def _chain_value(value, what: str, label: bool = False, number: bool = False):
    """``value`` under the chain rules, else :class:`InvalidTie`: an integer
    that :func:`strict_index` accepts, returned as an ``int``; with ``label``
    also a string; with ``number`` also ``None`` or a real, returned as a
    ``float``. A bool is none of these."""
    if not isinstance(value, bool):
        if (label and isinstance(value, str)) or (number and value is None):
            return value
        if number and isinstance(value, numbers.Real):
            try:
                return float(value)
            except OverflowError:
                raise InvalidTie(f"{what} is too large for a float") from None
        try:
            return strict_index(value)
        except TypeError:
            pass
    raise InvalidTie(f"{what} has type {type(value).__name__}: {value!r}")


def load_chain_config(path) -> tuple[int, list[TieLine]]:
    """Read a chain construction config (JSON) naming copies and ties.

    Format::

        {"copies": 3,
         "ties": [{"from": {"copy": 0, "bus": 7},
                   "to":   {"copy": 1, "bus": 8},
                   "susceptance": 17.4,      # optional
                   "flow_limit": 2.5}]}      # optional, per-unit

    The values are read as written; :func:`build_chain` applies the chain
    rules to them. A file that is not such a document raises
    :class:`InvalidTie`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        copies = doc["copies"]
        ties = [
            TieLine(t["from"]["copy"], t["from"]["bus"], t["to"]["copy"], t["to"]["bus"],
                    t.get("susceptance"), t.get("flow_limit"))
            for t in doc["ties"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidTie(f"bad chain config: {exc}") from exc
    return copies, ties
