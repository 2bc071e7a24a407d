"""Bridge decomposition of the worst-case sensitivity computation.

When the graph has bridges, the worst case for a generator-load pair factors
into per-subgraph worst cases. One pass over the bridge tree does the split:
off-path subtrees collapse to single buses, the bridges on the tree path from
the generator to the load split the graph into a chain of subgraphs, each
subgraph is completed with an auxiliary generator/load pair at the bridge
attachment points, and the pair's worst case is the product of the
per-subgraph worst cases.

What does not depend on the pair is built once per network: its adjacency,
its bridges, and every stage network, which is reused, with its cached PTDF
basis, by each later pair that yields the same stage.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .jacobian import BindingSet
from .network import Label, Network, _adjacency, assemble_network
from .sensitivity import tied_argmax_sets, worst_case_siso


def _bridges(adj: list[list[tuple[int, int]]]) -> tuple[int, ...]:
    """Bridge edge indices via one iterative DFS low-link pass, ascending.

    Parallel edges are handled per edge index: only the exact edge used to
    enter a vertex is skipped, so a doubled edge is never reported.
    """
    n = len(adj)
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
    return tuple(sorted(bridges))


@dataclass(frozen=True)
class _Structure:
    """What the decompositions of every pair of one network share: its
    adjacency, its bridges, and the stage networks built so far, keyed by
    their exact :func:`assemble_network` arguments, so a stage that recurs
    is one object with one cached PTDF basis."""

    adj: list[list[tuple[int, int]]]
    bridges: tuple[int, ...]
    stages: dict[tuple, Network]


#: one entry per network decomposed so far, dropped with the network
_STRUCTURES: weakref.WeakKeyDictionary[Network, _Structure] = weakref.WeakKeyDictionary()


def _structure(net: Network) -> _Structure:
    found = _STRUCTURES.get(net)
    if found is None:
        adj = _adjacency(net.n_bus, net.edges)
        found = _STRUCTURES[net] = _Structure(adj=adj, bridges=_bridges(adj), stages={})
    return found


def find_bridges(net: Network) -> list[int]:
    """Bridge edge indices, ascending: a fresh list of the ones
    :func:`_bridges` found once for ``net``."""
    return list(_structure(net).bridges)


@dataclass(frozen=True)
class PrunedSubgraph:
    """Record of one off-path side collapsed into a single bus."""

    bridge: tuple[Label, Label]
    replaced: tuple[Label, ...]
    kind: str           # "generator" | "load"
    new_label: str


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

    bridges: tuple[int, ...]                       # edge indices of the network, in path order
    stages: tuple[StageProblem, ...]
    augmented: tuple[tuple[str, str], ...]         # (p_l, q_l) label pairs per bridge
    pruned: tuple[PrunedSubgraph, ...]             # one per collapsed off-path side


def chain_partition(net: Network, gen: int, load: int) -> ChainDecomposition:
    """Split the pair's problem into a chain of stages in one pass over the
    bridge tree.

    Only bridges between two load buses split; a bridge at a generator spur
    would only spawn a trivial stage. The blocks, the components left once
    those bridges are removed, form a tree. Rooted at the generator's block,
    its path to the load's block gives the on-path bridges, each oriented
    from the bus ``x`` it leaves to the bus ``y`` it enters.

    An off-path subtree carries no sensitivity information beyond its
    aggregate injection: when it has more than one bus it collapses into one
    bus, ``~g{k}`` if it holds a generator and ``~l{k}`` otherwise, still
    attached through its bridge (``k`` counts collapses in ascending bridge
    index). Each on-path bridge is replicated into both neighboring blocks:
    the block it leaves gains an auxiliary load ``q{l}`` at ``x``, the block
    it enters gains an auxiliary generator ``p{l}`` at ``y``, both with the
    bridge's susceptance. Stage ``l`` then pairs its block's generator (the
    original one in the first stage) with its load (the original one in the
    last stage). With nothing to split or collapse the one stage is ``net``.
    """
    n_gen, labels = net.n_gen, net.vertex_order
    load_bus = n_gen + load
    shared = _structure(net)
    cut = {e for e in shared.bridges if min(net.edges[e][:2]) >= n_gen}

    # one DFS from the generator labels every bus with its block; block b > 0
    # is entered from block parent[b] < b through the bridge entry[b] = (x, y, e)
    block = [-1] * net.n_bus
    block[gen] = 0
    parent: list[int] = [-1]
    entry: list[tuple[int, int, int]] = [(-1, -1, -1)]
    adj = shared.adj
    stack = [gen]
    while stack:
        u = stack.pop()
        for w, e in adj[u]:
            if block[w] != -1:
                continue
            if e in cut:
                block[w] = len(parent)
                parent.append(block[u])
                entry.append((u, w, e))
            else:
                block[w] = block[u]
            stack.append(w)

    path = [block[load_bus]]
    while path[-1]:  # up to the generator's block 0
        path.append(parent[path[-1]])
    path.reverse()
    stage_of = {b: l for l, b in enumerate(path)}
    oriented = [entry[b] for b in path[1:]]
    m = len(path)

    # an off-path block b lies in the subtree of top[b], which hangs from a
    # path block; its buses form one off-path side
    top = list(range(len(parent)))
    for b in range(1, len(parent)):
        if parent[b] not in stage_of:
            top[b] = top[parent[b]]
    home = [stage_of.get(block[v]) for v in range(net.n_bus)]  # stage of each kept bus
    sides: dict[int, list[int]] = {}
    for v, h in enumerate(home):
        if h is None:
            sides.setdefault(top[block[v]], []).append(v)

    records: list[PrunedSubgraph] = []
    pendants: list[list[tuple[Label, str, float]]] = [[] for _ in range(m)]
    for t in sorted(sides, key=lambda t: entry[t][2]):
        x, _, e = entry[t]
        side, l = sides[t], stage_of[parent[t]]
        if len(side) == 1:
            home[side[0]] = l  # a one-bus side keeps its bus and edge
            continue
        kind = "generator" if side[0] < n_gen else "load"
        new_label = f"~{kind[0]}{len(records)}"
        records.append(PrunedSubgraph(
            bridge=net.edge_label(e),
            replaced=tuple(labels[v] for v in side),
            kind=kind,
            new_label=new_label,
        ))
        pendants[l].append((labels[x], new_label, net.edges[e][2]))

    stages: list[StageProblem] = []
    for l in range(m):
        kept = [v for v in range(net.n_bus) if home[v] == l]
        gen_labels = [labels[v] for v in kept if v < n_gen]
        gen_labels += [c for _, c, _ in pendants[l] if c.startswith("~g")]
        load_labels = [labels[v] for v in kept if v >= n_gen]
        load_labels += [c for _, c, _ in pendants[l] if c.startswith("~l")]
        edges = [(labels[u], labels[v], b) for u, v, b in net.edges if home[u] == home[v] == l]
        edges += pendants[l]
        stage_gen_label, stage_load_label = labels[gen], labels[load_bus]
        if l > 0:  # auxiliary generator where bridge l-1 enters
            _, y, e = oriented[l - 1]
            stage_gen_label = f"p{l}"
            gen_labels.append(stage_gen_label)
            edges.append((stage_gen_label, labels[y], net.edges[e][2]))
        if l < m - 1:  # auxiliary load where bridge l leaves
            x, _, e = oriented[l]
            stage_load_label = f"q{l + 1}"
            load_labels.append(stage_load_label)
            edges.append((labels[x], stage_load_label, net.edges[e][2]))

        if m == 1 and not records:
            sub = net
        else:
            key = (tuple(gen_labels), tuple(load_labels), tuple(edges))
            if key not in shared.stages:
                shared.stages[key] = assemble_network(*key, sort_labels=False)
            sub = shared.stages[key]
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
        augmented=tuple((f"p{l}", f"q{l}") for l in range(1, m)),
        pruned=tuple(records),
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

    decomp = chain_partition(net, gen, load)

    def run_stage(stage: StageProblem) -> StageResult:
        if collect_ties:
            value, argmax, ties = tied_argmax_sets(stage.network, stage.gen_index, stage.load_index)
            return StageResult(stage=stage, factor=value, argmax=argmax, ties=tuple(ties))
        value, argmax = worst_case_siso(stage.network, stage.gen_index, stage.load_index)
        return StageResult(stage=stage, factor=value, argmax=argmax)

    results = tuple(run_stage(s) for s in decomp.stages)

    value = float(np.prod([r.factor for r in results]))
    return DecomposedResult(value=value, stages=results, decomposition=decomp)
