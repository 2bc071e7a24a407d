"""Bridge decomposition of the worst-case sensitivity computation.

When the graph has bridges, the worst case for a generator-load pair factors
into per-subgraph worst cases: off-path subgraphs collapse to single buses,
the bridges along a shortest generator-load path split the graph into a chain
of subgraphs, each subgraph is completed with an auxiliary generator/load
pair at the bridge attachment points, and the pair's worst case is the
product of the per-subgraph worst cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoPath
from .jacobian import BindingSet
from .network import Label, Network, assemble_network
from .sensitivity import tied_argmax_sets, worst_case_siso


def _adjacency(net: Network) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(net.n_bus)]
    for e, (u, v, _) in enumerate(net.edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def find_bridges(net: Network) -> list[int]:
    """Bridge edge indices via one iterative DFS low-link pass, ascending.

    Parallel edges are handled per edge index: only the exact edge used to
    enter a vertex is skipped, so a doubled edge is never reported.
    """
    n = net.n_bus
    adj = _adjacency(net)
    disc = [-1] * n
    low = [0] * n
    bridges: list[int] = []
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int]] = [(root, -1)]
        iters = {root: iter(adj[root])}
        while stack:
            v, entry_edge = stack[-1]
            step = next(iters[v], None)
            if step is None:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.append(entry_edge)
                continue
            w, e = step
            if e == entry_edge:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, e))
                iters[w] = iter(adj[w])
            else:
                low[v] = min(low[v], disc[w])
    return sorted(bridges)


def _component(net: Network, start: int, removed_edges: set[int]) -> set[int]:
    adj = _adjacency(net)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w, e in adj[u]:
            if e not in removed_edges and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class PrunedSubgraph:
    """Record of one off-path side collapsed into a single bus."""

    bridge: tuple[Label, Label]
    replaced: tuple[Label, ...]
    kind: str           # "generator" | "load"
    new_label: str


def prune_offpath(net: Network, gen: int, load: int) -> tuple[Network, tuple[PrunedSubgraph, ...]]:
    """Collapse every off-path bridge side into a single bus.

    A bridge whose deletion leaves the generator and load connected carries no
    sensitivity information beyond its aggregate injection: the far side is
    replaced by one generator (if it contains any) or one load, still attached
    through the bridge edge. Bridges with a generator endpoint are kept as-is.
    Returns the reduced network and the collapse records.
    """
    records: list[PrunedSubgraph] = []
    counter = 0
    current = net
    a_label = net.vertex_order[gen]
    b_label = net.vertex_order[net.n_gen + load]

    while True:
        a = current.index_of(a_label)
        b = current.index_of(b_label)
        pruned_this_round = False
        for e in find_bridges(current):
            u, v, be = current.edges[e]
            if u < current.n_gen or v < current.n_gen:
                continue
            side_u = _component(current, u, {e})
            if (a in side_u) != (b in side_u):
                continue  # bridge lies on the path
            near_anchor, far_root = (u, v) if a in side_u else (v, u)
            far = _component(current, far_root, {e})
            if len(far) <= 1:
                continue  # already a single bus; nothing to collapse
            has_gen = any(w < current.n_gen for w in far)
            new_label = f"~{'g' if has_gen else 'l'}{counter}"
            counter += 1

            keep = set(range(current.n_bus)) - far
            gen_labels = [current.vertex_order[i] for i in range(current.n_gen) if i in keep]
            load_labels = [
                current.vertex_order[i]
                for i in range(current.n_gen, current.n_bus)
                if i in keep
            ]
            if has_gen:
                gen_labels.append(new_label)
            else:
                load_labels.append(new_label)
            edges = [
                (current.vertex_order[eu], current.vertex_order[ev], eb)
                for (eu, ev, eb) in current.edges
                if eu in keep and ev in keep
            ]
            edges.append((current.vertex_order[near_anchor], new_label, be))

            records.append(PrunedSubgraph(
                bridge=(current.vertex_order[u], current.vertex_order[v]),
                replaced=tuple(current.vertex_order[i] for i in sorted(far)),
                kind="generator" if has_gen else "load",
                new_label=new_label,
            ))
            current = assemble_network(gen_labels, load_labels, edges, sort_labels=False)
            pruned_this_round = True
            break
        if not pruned_this_round:
            return current, tuple(records)


@dataclass(frozen=True)
class StageProblem:
    """One subgraph of the chain with its generator-load pair."""

    network: Network
    gen_index: int     # internal generator index in `network`
    load_index: int    # internal load index in `network`
    gen_label: Label
    load_label: Label


@dataclass(frozen=True)
class ChainDecomposition:
    """Bridges along the path, the chain subgraphs, and augmentation records."""

    bridges: tuple[int, ...]                       # edge indices in path order
    stages: tuple[StageProblem, ...]
    augmented: tuple[tuple[str, str], ...]         # (p_l, q_l) label pairs per bridge
    pruned: tuple[PrunedSubgraph, ...] = field(default=())


def _shortest_path(net: Network, a: int, b: int) -> tuple[list[int], list[int]]:
    """Lexicographically smallest shortest path (by internal vertex index).

    Returns (vertex sequence, edge index sequence).
    """
    adj = _adjacency(net)
    dist = {b: 0}
    frontier = [b]
    while frontier:
        nxt = []
        for u in frontier:
            for w, _ in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    if a not in dist:
        raise NoPath(f"no path between {net.vertex_order[a]!r} and {net.vertex_order[b]!r}")

    path = [a]
    edges: list[int] = []
    cur = a
    while cur != b:
        steps = [(w, e) for w, e in adj[cur] if dist.get(w, -1) == dist[cur] - 1]
        w, e = min(steps)  # smallest next vertex, then smallest edge index
        path.append(w)
        edges.append(e)
        cur = w
    return path, edges


def chain_partition(net: Network, gen: int, load: int) -> ChainDecomposition:
    """Split the graph at the bridges along the generator-load shortest path.

    Each on-path bridge is replicated into both neighboring subgraphs: the
    subgraph it leaves gains an auxiliary load at the stub, the subgraph it
    enters gains an auxiliary generator, both with the bridge's susceptance.
    Stage ``l`` then pairs that subgraph's generator (the original one in the
    first stage) with its load (the original one in the last stage).
    """
    b_vertex = net.n_gen + load
    path, path_edges = _shortest_path(net, gen, b_vertex)
    bridge_set = set(find_bridges(net))
    # split only at bridges between non-generator buses (same guard as the
    # pruning step); a generator-spur bridge would only spawn a trivial stage
    path_bridges = [
        e for e in path_edges
        if e in bridge_set
        and net.edges[e][0] >= net.n_gen
        and net.edges[e][1] >= net.n_gen
    ]

    if not path_bridges:
        return ChainDecomposition(
            bridges=(),
            stages=(StageProblem(
                network=net,
                gen_index=gen,
                load_index=load,
                gen_label=net.vertex_order[gen],
                load_label=net.vertex_order[b_vertex],
            ),),
            augmented=(),
        )

    # orient each path bridge in path direction: leaves at x_l, enters at y_l
    oriented: list[tuple[int, int, int]] = []  # (x, y, edge)
    pos_on_path = {v: t for t, v in enumerate(path)}
    for e in path_bridges:
        u, v, _ = net.edges[e]
        x, y = (u, v) if pos_on_path[u] < pos_on_path[v] else (v, u)
        oriented.append((x, y, e))
    oriented.sort(key=lambda t: pos_on_path[t[0]])

    removed = {e for _, _, e in oriented}
    comps = [sorted(_component(net, gen, removed))]
    for _, y, _ in oriented:
        comps.append(sorted(_component(net, y, removed)))

    m = len(comps)
    stages: list[StageProblem] = []
    augmented: list[tuple[str, str]] = []
    for l in range(1, m):
        augmented.append((f"p{l}", f"q{l}"))

    for l in range(m):  # component l hosts stage l
        members = set(comps[l])
        gen_labels = [net.vertex_order[i] for i in comps[l] if i < net.n_gen]
        load_labels = [net.vertex_order[i] for i in comps[l] if i >= net.n_gen]
        edges = [
            (net.vertex_order[u], net.vertex_order[v], be)
            for (u, v, be) in net.edges
            if u in members and v in members
        ]
        if l > 0:  # auxiliary generator where bridge l-1 enters
            x, y, e = oriented[l - 1]
            p_label = f"p{l}"
            gen_labels.append(p_label)
            edges.append((p_label, net.vertex_order[y], net.edges[e][2]))
            stage_gen_label: Label = p_label
        else:
            stage_gen_label = net.vertex_order[gen]
        if l < m - 1:  # auxiliary load where bridge l leaves
            x, y, e = oriented[l]
            q_label = f"q{l + 1}"
            load_labels.append(q_label)
            edges.append((net.vertex_order[x], q_label, net.edges[e][2]))
            stage_load_label: Label = q_label
        else:
            stage_load_label = net.vertex_order[b_vertex]

        sub = assemble_network(gen_labels, load_labels, edges, sort_labels=False)
        stages.append(StageProblem(
            network=sub,
            gen_index=sub.index_of(stage_gen_label),
            load_index=sub.index_of(stage_load_label) - sub.n_gen,
            gen_label=stage_gen_label,
            load_label=stage_load_label,
        ))

    return ChainDecomposition(
        bridges=tuple(e for _, _, e in oriented),
        stages=tuple(stages),
        augmented=tuple(augmented),
    )


@dataclass(frozen=True)
class StageResult:
    """Worst case of one chain stage."""

    stage: StageProblem
    factor: float
    argmax: BindingSet
    ties: tuple[BindingSet, ...] = ()


@dataclass(frozen=True)
class DecomposedResult:
    """Product of per-stage worst cases with the full breakdown."""

    value: float
    stages: tuple[StageResult, ...]
    decomposition: ChainDecomposition

    @property
    def factors(self) -> tuple[float, ...]:
        return tuple(s.factor for s in self.stages)


def worst_case_decomposed(
    net: Network,
    gen: int,
    load: int,
    collect_ties: bool = False,
) -> DecomposedResult:
    """Worst-case sensitivity of pair ``(gen, load)`` via bridge decomposition.

    Equals the direct exhaustive search exactly when bridges exist, and
    degenerates to it when they do not. With ``collect_ties`` every stage
    also reports all binding sets that achieve its maximum within the tie
    tolerance.
    """
    if not 0 <= gen < net.n_gen:
        raise IndexError(f"generator index {gen} out of range")
    if not 0 <= load < net.n_load:
        raise IndexError(f"load index {load} out of range")

    pruned_net, prune_records = prune_offpath(net, gen, load)
    decomp = chain_partition(
        pruned_net,
        pruned_net.index_of(net.vertex_order[gen]),
        pruned_net.index_of(net.vertex_order[net.n_gen + load]) - pruned_net.n_gen,
    )
    decomp = ChainDecomposition(
        bridges=decomp.bridges,
        stages=decomp.stages,
        augmented=decomp.augmented,
        pruned=prune_records,
    )

    def run_stage(stage: StageProblem) -> StageResult:
        if collect_ties:
            value, argmax, ties = tied_argmax_sets(stage.network, stage.gen_index, stage.load_index)
            return StageResult(stage=stage, factor=value, argmax=argmax, ties=tuple(ties))
        value, argmax = worst_case_siso(stage.network, stage.gen_index, stage.load_index)
        return StageResult(stage=stage, factor=value, argmax=argmax)

    results = tuple(run_stage(s) for s in decomp.stages)

    value = float(np.prod([r.factor for r in results]))
    return DecomposedResult(value=value, stages=results, decomposition=decomp)
