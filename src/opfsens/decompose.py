"""Bridge decomposition of the worst-case sensitivity computation.

When the graph has bridges, the worst case for a generator-load pair factors
into per-subgraph worst cases. The network's side table, which end of each
bridge every bus lies behind, does the split: off-path sides collapse to
single buses, the bridges on the path from the generator to the load split
the graph into a chain of subgraphs, each subgraph is completed with an
auxiliary generator/load pair at the bridge attachment points, and the
pair's worst case is the product of the per-subgraph worst cases.

What does not depend on the pair is built once per network: the network
caches its blocks and side table, and every stage network is kept here and
reused, with its cached PTDF basis, by each later pair that yields it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .jacobian import BindingSet
from .network import Label, Network, assemble_network
from .sensitivity import tied_argmax_sets


#: the stage networks built so far for each network decomposed, dropped with
#: it, keyed by their exact :func:`assemble_network` arguments, so a stage
#: that recurs is one object with one cached PTDF basis
_STAGES: weakref.WeakKeyDictionary[Network, dict[tuple, Network]] = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class PrunedSubgraph:
    """Record of one off-path side collapsed into a single bus."""

    bridge: tuple[Label, Label]
    replaced: tuple[Label, ...]
    kind: str           # "generator" | "load"


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
    """Bridges along the path, the chain subgraphs, and collapse records."""

    bridges: tuple[int, ...]                       # edge indices of the network, in path order
    stages: tuple[StageProblem, ...]
    pruned: tuple[PrunedSubgraph, ...]             # one per collapsed off-path side


def chain_partition(net: Network, gen: int, load: int) -> ChainDecomposition:
    """Split the pair's problem into a chain of stages, read off the
    network's side table (:attr:`~opfsens.network.Network.sides`).

    Only bridges between two load buses split; a bridge at a generator spur
    would only spawn a trivial stage. One is on the path when the generator
    and the load lie behind different ends of it; it is oriented from the
    end ``x`` on the generator's side to the other end ``y``, and the path
    runs in order of shrinking far sides, the buses beyond each bridge.
    Stage ``l`` holds the buses beyond ``l`` path bridges.

    An off-path side, the buses beyond an outermost other splitting bridge,
    carries no sensitivity information beyond its aggregate injection: when
    it has more than one bus it collapses into one bus, ``~g{k}`` if it
    holds a generator and ``~l{k}`` otherwise, still attached through its
    bridge (``k`` counts collapses in ascending bridge index). Each on-path
    bridge is replicated into both neighboring stages: the one it leaves
    gains an auxiliary load ``q{l}`` at ``x``, the one it enters gains an
    auxiliary generator ``p{l}`` at ``y``, both with the bridge's
    susceptance. Stage ``l`` then pairs its generator (the original one in
    the first stage) with its load (the original one in the last stage).
    With nothing to split or collapse the one stage is ``net``.
    """
    net.check_pair(gen, load)
    n_gen, labels = net.n_gen, net.vertex_order
    load_bus = n_gen + load
    split = [e for e in net.bridges if min(net.edges[e][:2]) >= n_gen]
    ends = net.sides[:, split].T.tolist()  # ends[k][v]: the end of bridge k that bus v lies behind
    far = [[end != row[gen] for end in row] for row in ends]  # beyond it, seen from the generator
    path = sorted((k for k in range(len(split)) if far[k][load_bus]), key=lambda k: -sum(far[k]))
    oriented = [(ends[k][gen], ends[k][load_bus], split[k]) for k in path]
    # the stage of each kept bus: the path bridges it lies beyond
    home = [sum(beyond) for beyond in zip([0] * net.n_bus, *(far[k] for k in path))]
    m = len(path) + 1

    # the buses beyond an off-path bridge at a kept bus are one side
    off = [k for k in range(len(split)) if not far[k][load_bus]]
    records: list[PrunedSubgraph] = []
    pendants: list[list[tuple[Label, str, float]]] = [[] for _ in range(m)]
    for k in off:
        side, e, x = [v for v, f in enumerate(far[k]) if f], split[k], ends[k][gen]
        if len(side) == 1 or any(far[j][x] for j in off):
            continue  # a one-bus side keeps its bus and edge; an inner side is in an outer one
        for v in side:
            home[v] = -1
        kind = "generator" if side[0] < n_gen else "load"
        new_label = f"~{kind[0]}{len(records)}"
        records.append(PrunedSubgraph(
            bridge=net.edge_label(e),
            replaced=tuple(labels[v] for v in side),
            kind=kind,
        ))
        pendants[home[x]].append((labels[x], new_label, net.edges[e][2]))

    built = _STAGES.setdefault(net, {})
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
            if key not in built:
                built[key] = assemble_network(*key)
            sub = built[key]
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
    degenerates to it when they do not. Every stage runs the tie query,
    whose first set is the stage's argmax; with ``collect_ties`` its result
    also keeps every set tied within the tie tolerance.
    """
    decomp = chain_partition(net, gen, load)
    results = []
    for stage in decomp.stages:
        factor, argmax, ties = tied_argmax_sets(stage.network, stage.gen_index, stage.load_index)
        results.append(StageResult(stage, factor, argmax, tuple(ties) if collect_ties else ()))
    value = float(np.prod([r.factor for r in results]))
    return DecomposedResult(value=value, stages=tuple(results), decomposition=decomp)
