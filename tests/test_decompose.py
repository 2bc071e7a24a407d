"""Bridge finding, the one-pass chain partition with its collapse records,
and the product identity."""

from __future__ import annotations

import pytest

import opfsens as ops
from opfsens import decompose, sensitivity
from opfsens.network import assemble_network


def bridges_oracle(net):
    """Delete each edge, test connectivity: the definitional bridge set."""
    out = []
    for e in range(net.n_edge):
        adj = {i: set() for i in range(net.n_bus)}
        for k, (u, v, _) in enumerate(net.edges):
            if k != e:
                adj[u].add(v)
                adj[v].add(u)
        seen, stack = set(), [0]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
        if len(seen) != net.n_bus:
            out.append(e)
    return tuple(out)


def cycle_graph(n=5):
    edges = [(i, (i % n) + 1, 1.0) for i in range(1, n + 1)]
    return assemble_network([1], list(range(2, n + 1)), edges)


def tree_graph():
    edges = [(1, 2, 1.0), (2, 3, 2.0), (2, 4, 3.0), (4, 5, 1.5)]
    return assemble_network([1], [2, 3, 4, 5], edges)


def test_bridges_cycle():
    net = cycle_graph()
    assert net.bridges == ()
    assert bridges_oracle(net) == ()


def test_bridges_tree():
    net = tree_graph()
    assert net.bridges == (0, 1, 2, 3)


def test_bridges_parallel_edges():
    net = assemble_network([1], [2, 3], [(1, 2, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    assert net.bridges == (2,) == bridges_oracle(net)


def test_bridges_match_oracle(net9, chain18, chain27):
    for net in (net9, cycle_graph(), tree_graph(), chain18[0], chain27[0]):
        assert net.bridges == bridges_oracle(net)


def test_bridges_case9(net9):
    # the three generator spurs are the only bridges
    assert net9.bridges == (0, 3, 6)


def test_bridges_27bus_ties(chain27):
    net, _ = chain27
    labels = {tuple(map(str, net.edge_label(e))) for e in net.bridges}
    assert ("7", "8'") in labels
    assert ("5'", "4''") in labels


def test_prune_far_pair_keeps_everything(chain27):
    """For a first-copy generator against a last-copy load every non-spur
    bridge lies on the path: nothing prunable."""
    net, _ = chain27
    decomp = ops.chain_partition(net, 0, net.index_of("9''") - net.n_gen)
    assert decomp.pruned == ()
    # every bus is in a stage; each split adds one auxiliary pair
    n_bus = sum(s.network.n_bus for s in decomp.stages) - 2 * len(decomp.bridges)
    assert n_bus == net.n_bus


def test_prune_near_pair_collapses_far_copies(chain27):
    """Generator 1 against a first-copy load: both far copies collapse into a
    single generator bus behind the first tie."""
    net, _ = chain27
    decomp = ops.chain_partition(net, 0, net.index_of("5") - net.n_gen)
    records = decomp.pruned
    assert len(records) == 1
    assert records[0].kind == "generator"
    assert len(records[0].replaced) == 18
    assert decomp.stages[0].network.n_bus == 10


def test_prune_pendant_load_subtree():
    """A load-only subtree collapses to one load bus."""
    base = assemble_network(
        [1, 2], [3, 4, 5, 6],
        [(1, 3, 1.0), (3, 4, 2.0), (4, 2, 1.0), (3, 4, 3.0),
         (4, 5, 1.0), (5, 6, 1.0)],
    )
    # subtree {5, 6} hangs off 4; pair (gen 1, load 3) never crosses it
    decomp = ops.chain_partition(base, 0, 0)
    records = decomp.pruned
    assert len(records) == 1
    assert records[0].kind == "load"
    assert records[0].replaced == (5, 6)
    assert decomp.stages[0].network.n_bus == 5


def test_prune_single_pendant_is_identity():
    """A far side that is already one bus is left alone."""
    base = assemble_network(
        [1, 2], [3, 4, 5],
        [(1, 3, 1.0), (3, 4, 2.0), (4, 2, 1.0), (3, 4, 3.0), (4, 5, 1.0)],
    )
    decomp = ops.chain_partition(base, 0, 0)
    assert decomp.pruned == ()
    assert decomp.stages[0].network.n_bus == 5


def test_prune_bridge_free_identity():
    net = cycle_graph()
    decomp = ops.chain_partition(net, 0, 0)
    assert decomp.pruned == ()
    assert decomp.stages[0].network.vertex_order == net.vertex_order


def _assert_records_partition(net, decomp):
    """The collapse records name disjoint sets of original buses, and every
    original bus lies in exactly one record or exactly one stage network
    (the ``p``/``q``/``~`` buses of the stages do not count)."""
    original = set(net.vertex_order)
    replaced = [lab for rec in decomp.pruned for lab in rec.replaced]
    assert len(replaced) == len(set(replaced))
    assert not any(str(lab).startswith("~") for lab in replaced)
    staged = [lab for s in decomp.stages for lab in s.network.vertex_order if lab in original]
    assert sorted(map(str, replaced + staged)) == sorted(map(str, original))


def test_chain_partition_27bus(chain27):
    net, _ = chain27
    decomp = ops.chain_partition(net, 0, net.index_of("7''") - net.n_gen)
    assert len(decomp.stages) == 3
    assert [s.network.n_bus for s in decomp.stages] == [10, 11, 10]
    assert decomp.stages[0].gen_label == "1"
    assert decomp.stages[0].load_label == "q1"
    assert decomp.stages[1].gen_label == "p1"
    assert decomp.stages[1].load_label == "q2"
    assert decomp.stages[2].gen_label == "p2"
    assert decomp.stages[2].load_label == "7''"


def test_chain_partition_two_copies(chain18):
    net, _ = chain18
    decomp = ops.chain_partition(net, 0, net.index_of("9'") - net.n_gen)
    assert len(decomp.stages) == 2
    assert [s.network.n_bus for s in decomp.stages] == [10, 10]


def test_chain_partition_no_bridges_on_path():
    net = cycle_graph()
    decomp = ops.chain_partition(net, 0, 2)
    assert len(decomp.stages) == 1
    assert decomp.stages[0].network is net
    assert decomp.bridges == ()


def test_decomposed_equals_direct_bridge_free():
    net = cycle_graph()
    direct, _ = ops.worst_case_siso(net, 0, 2)
    res = ops.worst_case_decomposed(net, 0, 2)
    assert res.value == direct
    assert len(res.stages) == 1


def test_decomposed_equals_direct_two_copy_far_pair(chain18):
    """Far-side pair (generator 1, load 9'): the product of the two stage
    worst cases equals the frozen value computed independently, and the full
    cross-check against direct enumeration runs in the acceptance suite."""
    net, _ = chain18
    res = ops.worst_case_decomposed(net, 0, net.index_of("9'") - net.n_gen)
    assert len(res.stages) == 2
    assert res.value == pytest.approx(3.2776888227, abs=1e-6)
    assert res.factors[0] == pytest.approx(2.4747967480, abs=1e-6)
    assert res.factors[1] == pytest.approx(1.3244274809, abs=1e-6)


def test_monotone_middle_multiplier(net9, params9):
    """Adding a middle copy multiplies the end-to-end worst case by that
    copy's internal factor (here > 1), so the chain value never decreases."""
    two, _ = ops.build_chain(net9, params9, 2, [ops.TieLine(0, 7, 1, 4)])
    three, _ = ops.build_chain(
        net9, params9, 3,
        [ops.TieLine(0, 7, 1, 4), ops.TieLine(1, 7, 2, 4)],
    )
    v2 = ops.worst_case_decomposed(two, 0, two.index_of("9'") - two.n_gen)
    v3 = ops.worst_case_decomposed(three, 0, three.index_of("9''") - three.n_gen)
    middle = [r.factor for r in v3.stages][1]
    assert middle >= 1.0
    assert v3.value >= v2.value - 1e-9
    assert v3.value == pytest.approx(v2.value * middle, rel=1e-9)


def _random_bridge_network(seed):
    """Random connected blobs joined in a tree by bridges."""
    import numpy as np

    rng = np.random.default_rng(seed)
    all_labels, all_edges, blobs = [], [], []
    for b in range(int(rng.integers(2, 4))):
        n = int(rng.integers(3, 6))
        labels = [100 * (b + 1) + i for i in range(n)]
        for i in range(1, n):
            j = int(rng.integers(0, i))
            all_edges.append((labels[j], labels[i], float(rng.uniform(1.0, 20.0))))
        for _ in range(int(rng.integers(0, n))):
            i, j = rng.choice(n, 2, replace=False)
            all_edges.append((labels[i], labels[j], float(rng.uniform(1.0, 20.0))))
        all_labels += labels
        blobs.append(labels)
    for b in range(1, len(blobs)):
        a = int(rng.integers(0, b))
        u = blobs[a][int(rng.integers(0, len(blobs[a])))]
        v = blobs[b][int(rng.integers(0, len(blobs[b])))]
        all_edges.append((u, v, float(rng.uniform(1.0, 20.0))))
    n_gen = int(rng.integers(2, min(5, len(all_labels))))
    gens = sorted(rng.choice(all_labels, n_gen, replace=False).tolist())
    loads = [l for l in all_labels if l not in gens]
    return assemble_network(gens, loads, all_edges)


RANDOM_SEEDS = [*range(20), 23]


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_decomposed_equals_direct_random_topologies(seed):
    """The product identity holds on arbitrary bridge structures, not just
    chains: random blobs in a tree, random splits, every pair checked."""
    net = _random_bridge_network(seed)
    rep = ops.worst_case_all(net)
    for i in range(net.n_gen):
        for j in range(net.n_load):
            res = ops.worst_case_decomposed(net, i, j)
            assert res.value == pytest.approx(rep.cwc[i, j], rel=1e-9)


def test_records_partition_original_buses(chain27):
    """Every pair of the 27-bus chain and of the random topologies: one
    record per maximal off-path side, disjoint from the stages. A nested
    side is one record, so no record names a collapsed ``~`` bus."""
    nets = [chain27[0]] + [_random_bridge_network(seed) for seed in RANDOM_SEEDS]
    for net in nets:
        for i in range(net.n_gen):
            for j in range(net.n_load):
                _assert_records_partition(net, ops.chain_partition(net, i, j))
    # the decomposed query reports the same records: generator 1'' against
    # load 5'' collapses both other copies behind one bridge
    net = chain27[0]
    res = ops.worst_case_decomposed(net, net.index_of("1''"), net.index_of("5''") - net.n_gen)
    _assert_records_partition(net, res.decomposition)
    assert [len(rec.replaced) for rec in res.decomposition.pruned] == [18]


def test_stages_without_ties_keep_the_first_tied_set(chain27):
    """Every stage runs the tie query, with ``collect_ties`` or without: on
    all 162 pairs of the 27-bus chain and every pair of the random
    topologies, values, factors and stage argmax sets are ``==`` across the
    flag, each stage's answer is the single-pair query's, its argmax is the
    first of its ties, and without the flag no stage keeps a tie list."""
    nets = [chain27[0]] + [_random_bridge_network(seed) for seed in RANDOM_SEEDS]
    for net in nets:
        for i in range(net.n_gen):
            for j in range(net.n_load):
                plain = ops.worst_case_decomposed(net, i, j)
                tied = ops.worst_case_decomposed(net, i, j, collect_ties=True)
                assert (plain.value, plain.factors) == (tied.value, tied.factors)
                assert [s.argmax for s in plain.stages] == [s.argmax for s in tied.stages]
                for s, t in zip(plain.stages, tied.stages):
                    assert s.ties == () and t.ties[0] == t.argmax
                    single = ops.worst_case_siso(s.stage.network, s.stage.gen_index,
                                                 s.stage.load_index)
                    assert single == (s.factor, s.argmax)


def test_decomposed_chunk_invariance(chain27, monkeypatch):
    net, _ = chain27
    lj = net.index_of("7''") - net.n_gen
    base = ops.worst_case_decomposed(net, 0, lj, collect_ties=True)
    for chunk in (1, 7):
        monkeypatch.setattr(sensitivity, "CHUNK", chunk)
        res = ops.worst_case_decomposed(net, 0, lj, collect_ties=True)
        assert res.value == base.value
        assert res.factors == base.factors
        assert [s.argmax for s in res.stages] == [s.argmax for s in base.stages]
        assert [s.ties for s in res.stages] == [s.ties for s in base.stages]


def _fresh_chain27(net9, params9):
    copies, ties = ops.load_chain_config(ops.bundled_chain_config_path())
    return ops.build_chain(net9, params9, copies, ties)[0]


def _report(res):
    """What a decomposed result reports, each float by its exact bits."""
    stages = [
        (s.factor.hex(), s.argmax, s.ties, s.stage.gen_label, s.stage.load_label,
         s.stage.gen_index, s.stage.load_index, s.stage.network.n_gen,
         s.stage.network.vertex_order, s.stage.network.edges)
        for s in res.stages
    ]
    decomp = res.decomposition
    return res.value.hex(), stages, decomp.bridges, decomp.pruned


@pytest.mark.parametrize("make", ["chain27", *range(20)])
def test_shared_stages_match_cold_builds(make, net9, params9, monkeypatch):
    """A network decomposed before reuses its stage networks. Every pair's
    result from the warm network equals, bit for bit, the one from a network
    never decomposed, whose stages have packed no layout yet; equal stages
    are one object; each distinct stage is assembled once, 15 on the 27-bus
    chain."""
    def build():
        if make == "chain27":
            return _fresh_chain27(net9, params9)
        return _random_bridge_network(make)

    assembled = []
    assemble = decompose.assemble_network

    def counting(*args, **kwargs):
        assembled.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(decompose, "assemble_network", counting)
    warm = build()
    pairs = [(i, j) for i in range(warm.n_gen) for j in range(warm.n_load)]
    first = {p: ops.worst_case_decomposed(warm, *p, collect_ties=True) for p in pairs}

    objects: dict[tuple, set[int]] = {}
    for res in first.values():
        for s in res.stages:
            sub = s.stage.network
            objects.setdefault((sub.n_gen, sub.vertex_order, sub.edges), set()).add(id(sub))
    assert all(len(ids) == 1 for ids in objects.values())
    built = [key for key, ids in objects.items() if ids != {id(warm)}]
    assert len(assembled) == len(built)
    if make == "chain27":
        assert len(assembled) == 15

    for p in pairs:
        again = ops.worst_case_decomposed(warm, *p, collect_ties=True)
        cold = ops.worst_case_decomposed(build(), *p, collect_ties=True)
        assert _report(again) == _report(cold) == _report(first[p])
