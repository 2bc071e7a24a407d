"""Worst-case search: enumeration, SISO/MISO maxima, chunking, tie rule."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import weakref
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfsens as ops
from opfsens import dcopf, sensitivity
from opfsens.errors import (
    DependentBindings, DimensionMismatch, EmptyLoadSet, InvalidIndex, InvalidLoad, InvalidSampling,
    NoValidSet,
)
from opfsens.jacobian import (
    BindingSet, SetBatch, Solved, live_branches, pool_rows, reduced_solve, set_batch,
)
from opfsens.network import assemble_network
from opfsens.sensitivity import TIE_TOL, candidate_count, live_candidate_count

import oracles
from conftest import random_regular_params
from test_decompose import RANDOM_SEEDS, _random_bridge_network
from test_jacobian import _path_network, _random_network, _same_bits


def test_candidate_count_case9(net9):
    # C(3,0)C(9,2) + C(3,1)C(9,1) + C(3,2)C(9,0)
    assert candidate_count(net9) == 36 + 27 + 3 == 66
    # the scan walks all but the three sets that bind a dead branch
    assert live_candidate_count(net9) == 63 == sum(map(len, sensitivity._chunks(net9, 7)))


def test_network_without_generators_has_no_candidates():
    """No binding set, and a PTDF basis of branch rows alone: the flows of a
    unit injection at each bus, grounded at bus 0."""
    net = assemble_network([], [1, 2], [(1, 2, 1.0)])
    assert candidate_count(net) == 0
    with pytest.raises(NoValidSet):
        ops.worst_case_all(net)
    grounded = np.zeros((2, 2))
    grounded[1:, 1:] = np.linalg.inv(net.laplacian[1:, 1:])
    assert net.ptdf_basis.shape == (net.n_bus, net.n_edge)
    assert np.array_equal(net.ptdf_basis, (net.flow_matrix @ grounded).T)


def test_enumeration_case9(net9):
    sets = list(ops.enumerate_binding_sets(net9))
    assert len(sets) == 60  # 66 candidates minus 6 dependent ones
    assert len(set(sets)) == 60
    # lexicographic: generator set first (prefix-ordered), then branch set
    assert sets[0] == BindingSet((), (0, 1))
    assert sets == sorted(sets, key=lambda s: (s.gens, s.branches))


def test_enumeration_single_generator(two_bus):
    net, _ = two_bus
    assert list(ops.enumerate_binding_sets(net)) == [BindingSet((), ())]


def test_enumeration_star_two_generators():
    """Two generators feeding a central load: every size-1 set is valid
    (each spur pins its generator, each generator row pins itself)."""
    star = assemble_network([1, 2], [3], [(1, 3, 5.0), (2, 3, 7.0)])
    assert candidate_count(star) == 4
    sets = list(ops.enumerate_binding_sets(star))
    assert sets == [
        BindingSet((), (0,)), BindingSet((), (1,)),
        BindingSet((0,), ()), BindingSet((1,), ()),
    ]


def _live(net):
    """The live branches of each generator subset, in scan order."""
    return [live_branches(net, gens) for gens in sensitivity._gen_subsets(net.n_gen)]


def _walked(net, live):
    """The keys of the candidate rows over the branch lists ``live``, one
    per generator subset, each kept only if it binds its block's subset."""
    return [key for gens, branches in zip(sensitivity._gen_subsets(net.n_gen), live)
            for rows in sensitivity._subset_rows(gens, branches, net.n_gen)
            for key in oracles.row_keys(net, rows) if key[0] == gens]


@pytest.mark.parametrize("combo_rows", [sensitivity.COMBO_ROWS, 40, 1])
def test_candidate_order_matches_itertools(net9, chain18, two_bus, monkeypatch, combo_rows):
    """The numpy-built candidate rows list every set once, in the
    lexicographic order itertools gives, each block with the generator
    subset its rows bind, also when long combination lists are built a
    prefix at a time from a short table. Over each subset's live branches
    they list exactly the candidates without a dead branch, in that order."""
    monkeypatch.setattr(sensitivity, "COMBO_ROWS", combo_rows)
    star = assemble_network([1, 2], [3], [(1, 3, 5.0), (2, 3, 7.0)])
    for net in (net9, chain18[0], two_bus[0], star):
        every = [range(net.n_edge)] * (2**net.n_gen - 1)
        assert _walked(net, every) == oracles.lex_candidates(net)
        dead = {gens: oracles.dead_branches(net, gens) for gens in sensitivity._gen_subsets(net.n_gen)}
        assert _walked(net, _live(net)) == [
            (gens, branches) for gens, branches in oracles.lex_candidates(net)
            if dead[gens].isdisjoint(branches)]


def _excluded(net):
    """The candidates the scan does not walk, in lexicographic order."""
    walked = set(_walked(net, _live(net)))
    return [key for key in oracles.lex_candidates(net) if key not in walked]


def _assert_rejected(net, keys):
    """Each set is rejected by both public entry points."""
    for key in keys:
        bset = BindingSet(*key)
        assert not ops.independence_check(net, bset), key
        with pytest.raises(DependentBindings):
            ops.jacobian_from_binding(net, bset)


def _assert_live_on_simple_paths(net):
    """The live branches of each generator subset are those on a simple
    path between two of its free generators, by the path-walking oracle."""
    for gens in sensitivity._gen_subsets(net.n_gen):
        dead = oracles.dead_branches(net, gens)
        assert live_branches(net, gens).tolist() == [e for e in range(net.n_edge) if e not in dead]


def _bridge_and_random_networks(net9):
    """case9, the 30 random networks of
    test_independence_agrees_across_entry_points and the 21 random bridge
    networks of the decomposition tests."""
    rng = np.random.default_rng(7)
    return [[net9], [_random_network(rng) for _ in range(30)],
            [_random_bridge_network(seed) for seed in RANDOM_SEEDS]]


def test_live_branches_are_on_simple_paths(net9):
    for nets in _bridge_and_random_networks(net9):
        for net in nets:
            _assert_live_on_simple_paths(net)


def test_dead_branch_exclusion_is_exact(net9, chain18):
    """Every candidate the scan skips binds a dead branch, and is rejected
    by independence_check and jacobian_from_binding: all of case9's, of the
    30 random networks and of the 21 random bridge networks. The 18-bus
    chain's 11279 are checked with one batched reduced_solve per generator
    subset here, whose verdicts are each set's own (the oracle-pipeline
    property), and through both entry points under ``-m slow``."""
    counts = []
    for nets in _bridge_and_random_networks(net9):
        excluded = [(net, _excluded(net)) for net in nets]
        for net, keys in excluded:
            assert all(oracles.binds_dead_branch(net, key) for key in keys)
            _assert_rejected(net, keys)
        counts.append(sum(len(keys) for _, keys in excluded))
    assert counts == [3, 756, 5505]
    net = chain18[0]
    keys = _excluded(net)
    walked = sum(map(len, sensitivity._chunks(net, sensitivity.CHUNK)))
    assert walked == live_candidate_count(net) == 41851
    assert len(keys) == 11279 == candidate_count(net) - walked
    for gens, run in itertools.groupby(keys, key=lambda key: key[0]):
        rows = np.array([gens + tuple(net.n_gen + e for e in branches) for _, branches in run])
        assert not len(reduced_solve(net, set_batch(net.n_gen, net.n_edge, [(gens, rows)]), ()))


@pytest.mark.slow
def test_dead_branch_exclusion_is_exact_chain18(chain18):
    """The 18-bus chain's 11279 skipped candidates, each through both entry
    points."""
    net = chain18[0]
    keys = _excluded(net)
    assert len(keys) == 11279
    _assert_rejected(net, keys)


def test_hub_walk_is_bounded_by_the_graph():
    """Eleven generators on one hub bus, with 300 parallel branches from the
    hub to a pendant load: no transfer between generators crosses the
    parallel branches, so each subset's live branches are its free
    generators' spurs, and the scan walks 11 * 2**10 = 11264 of the C(322,
    10), about 2.87e18, candidates and completes."""
    gens = [f"g{k}" for k in range(11)]
    net = assemble_network(gens, ["hub", "pendant"],
                           [(g, "hub", 1.0 + k) for k, g in enumerate(gens)]
                           + [("hub", "pendant", 2.0)] * 300)
    walked = sum(math.comb(len(live), net.n_gen - 1 - len(g))
                 for g, live in zip(sensitivity._gen_subsets(net.n_gen), _live(net)))
    assert walked == 11264 == live_candidate_count(net)
    report = ops.worst_case_all(net)
    assert report.candidates_valid == 11264
    assert report.candidates_total == math.comb(322, 10)


@st.composite
def _networks(draw):
    """A random connected network with log-uniform susceptances."""
    n_bus = draw(st.integers(2, 9))
    n_gen = draw(st.integers(1, min(5, n_bus - 1)))
    extra = draw(st.integers(0, min(4, n_bus * (n_bus - 1) // 2 - (n_bus - 1))))
    return _random_network(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                           n_bus, n_gen, extra)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_networks())
def test_skipped_candidates_are_rejected(net):
    """On random connected networks, the live branches are those on simple
    paths between free generators, the scan skips exactly the candidates
    that bind a dead branch, and both entry points reject each of them."""
    _assert_live_on_simple_paths(net)
    keys = _excluded(net)
    assert keys == [key for key in oracles.lex_candidates(net) if oracles.binds_dead_branch(net, key)]
    _assert_rejected(net, keys)


def test_worst_case_siso_published(net9, table9):
    val, _ = ops.worst_case_siso(net9, 0, 0)   # generator 1, load bus 4
    assert val == pytest.approx(1.0000, abs=1e-3)
    val, bset = ops.worst_case_siso(net9, 2, 5)  # generator 3, load bus 9
    assert val == pytest.approx(3.0081, abs=1e-3)
    assert ops.jacobian_from_binding(net9, bset).jac[2, 5] == pytest.approx(
        val, abs=1e-9
    ) or ops.jacobian_from_binding(net9, bset).jac[2, 5] == pytest.approx(-val, abs=1e-9)
    val, _ = ops.worst_case_siso(net9, 1, 4)   # generator 2, load bus 8
    assert val == pytest.approx(1.0000, abs=1e-3)


def test_worst_case_all_published(net9, table9):
    rep = ops.worst_case_all(net9)
    assert np.abs(rep.cwc - table9).max() < 1e-3
    assert rep.candidates_total == 66
    assert rep.candidates_valid == 60
    # argmax reproduces each entry
    for i in range(3):
        for j in range(6):
            jac = ops.jacobian_from_binding(net9, rep.argmax[i][j]).jac
            assert abs(jac[i, j]) == pytest.approx(rep.cwc[i, j], abs=1e-9)


def test_worst_case_two_bus(two_bus):
    net, _ = two_bus
    rep = ops.worst_case_all(net)
    assert rep.cwc.shape == (1, 1)
    assert rep.cwc[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert rep.candidates_total == rep.candidates_valid == 1


def test_worst_case_matches_per_pair_scan(net9):
    """The per-pair and the all-pairs query reduce over the same scan: equal
    values and sets, and the set reproduces the value."""
    rep = ops.worst_case_all(net9)
    for i, j in ((0, 0), (1, 3), (2, 5)):
        val, bset = ops.worst_case_siso(net9, i, j)
        assert val == rep.cwc[i, j]
        assert bset == rep.argmax[i][j]
        assert abs(ops.jacobian_from_binding(net9, bset).jac[i, j]) == pytest.approx(
            val, abs=1e-9)


def _assert_one_argmax(net, rep, i, j):
    val, bset = ops.worst_case_siso(net, i, j)
    best, argmax, ties = ops.tied_argmax_sets(net, i, j)
    assert rep.argmax[i][j] == bset == argmax == ties[0]
    assert rep.cwc[i, j] == val == best


def test_queries_name_one_argmax(net9, chain27):
    """All-pairs, SISO and tie queries pick the same set: on every case9
    pair and on the stages of three far pairs of the 27-bus chain."""
    rep = ops.worst_case_all(net9)
    for i, j in itertools.product(range(net9.n_gen), range(net9.n_load)):
        _assert_one_argmax(net9, rep, i, j)
    net, _ = chain27
    for gen, bus in ((0, "4''"), (1, "7''"), (2, "9''")):
        res = ops.worst_case_decomposed(net, gen, net.index_of(bus) - net.n_gen,
                                        collect_ties=True)
        for sr in res.stages:
            st = sr.stage
            assert sr.argmax == sr.ties[0]
            _assert_one_argmax(st.network, ops.worst_case_all(st.network),
                               st.gen_index, st.load_index)


def test_argmax_is_first_tied_set(net9):
    """The tie rule, checked apart from the scan: the argmax is the first
    enumerated set whose Jacobian entry is within TIE_TOL of the maximum."""
    rep = ops.worst_case_all(net9)
    jacs = [(bset, np.abs(ops.jacobian_from_binding(net9, bset).jac))
            for bset in ops.enumerate_binding_sets(net9)]
    for i, j in itertools.product(range(net9.n_gen), range(net9.n_load)):
        first = next(b for b, jac in jacs if jac[i, j] >= rep.cwc[i, j] - TIE_TOL)
        assert rep.argmax[i][j] == first


def test_max_dominates_every_set(net9):
    rep = ops.worst_case_all(net9)
    for bset in ops.enumerate_binding_sets(net9):
        jac = np.abs(ops.jacobian_from_binding(net9, bset).jac)
        assert (jac <= rep.cwc + 1e-9).all()


def test_sampled_instances_below_worst_case(net9, params9):
    """Realized |J_ij| from solved instances never beats the discrete max."""
    rep = ops.worst_case_all(net9)
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 10:
        params = random_regular_params(params9, rng)
        load = rng.uniform(0.1, 0.5, 6)
        try:
            sol = ops.solve_opf(net9, params, load)
            bset = ops.extract_binding_set(sol, net9, params)
        except ops.errors.OpfSensError:
            continue
        jac = np.abs(ops.jacobian_from_binding(net9, bset).jac)
        assert (jac <= rep.cwc + 1e-9).all()
        checked += 1


def test_miso_singleton_equals_siso(net9):
    for i, j in ((0, 0), (2, 5)):
        siso, _ = ops.worst_case_siso(net9, i, j)
        miso, _ = ops.worst_case_miso(net9, i, [j])
        assert miso == pytest.approx(siso, abs=1e-12)


def test_miso_dominates_coordinates(net9, table9):
    """Generator 3 against loads {6, 9} (indices 2 and 5): at least the
    larger coordinate, equal to the frozen enumerated value."""
    val, _ = ops.worst_case_miso(net9, 2, [2, 5])
    assert val >= max(table9[2, 2], table9[2, 5]) - 1e-9
    assert val == pytest.approx(3.1699647870, abs=1e-6)


def test_miso_all_loads_dominates_row_max(net9, table9):
    val, _ = ops.worst_case_miso(net9, 2, list(range(6)))
    assert val >= table9[2].max() - 1e-9


def test_miso_validation(net9):
    with pytest.raises(EmptyLoadSet):
        ops.worst_case_miso(net9, 0, [])


@pytest.mark.parametrize("loads, match", [
    (5, "load set 5 is not"),
    (None, "load set None is not"),
    ([[1]], r"load index \[1\] is not an integer"),
])
def test_miso_load_set_must_hold_load_indices(net9, loads, match):
    """A load set that is not a collection of indices is an InvalidIndex,
    not the TypeError of building a set from it."""
    with pytest.raises(InvalidIndex, match=match):
        ops.worst_case_miso(net9, 0, loads)


def test_local_sensitivity_two_bus(two_bus):
    net, params = two_bus
    assert ops.local_sensitivity(net, params, np.array([0.5]), 0, 0) == pytest.approx(1.0)


def test_local_sensitivity_matches_fd(net9, params9):
    rng = np.random.default_rng(8)
    params = random_regular_params(params9, rng)
    load = rng.uniform(0.1, 0.5, 6)
    fd = ops.jacobian_finite_diff(net9, params, load, step=1e-4)
    for i, j in ((0, 1), (2, 3)):
        local = ops.local_sensitivity(net9, params, load, i, j)
        assert local == pytest.approx(abs(fd[i, j]), abs=1e-5)


def test_local_below_worst_case(net9, params9):
    rng = np.random.default_rng(13)
    params = random_regular_params(params9, rng)
    load = rng.uniform(0.1, 0.5, 6)
    for i, j in ((0, 0), (1, 2), (2, 5)):
        local = ops.local_sensitivity(net9, params, load, i, j)
        wc, _ = ops.worst_case_siso(net9, i, j)
        assert local <= wc + 1e-9


def test_chunk_size_invariance(net9, monkeypatch):
    base = ops.worst_case_all(net9)
    base_siso = ops.worst_case_siso(net9, 2, 5)
    base_miso = ops.worst_case_miso(net9, 2, [2, 5])
    base_ties = ops.tied_argmax_sets(net9, 0, 3)
    base_sets = list(ops.enumerate_binding_sets(net9))
    for chunk in (1, 7):
        monkeypatch.setattr(sensitivity, "CHUNK", chunk)
        rep = ops.worst_case_all(net9)
        assert np.array_equal(rep.cwc, base.cwc)
        assert rep.argmax == base.argmax
        assert rep.candidates_valid == base.candidates_valid
        assert ops.worst_case_siso(net9, 2, 5) == base_siso
        assert ops.worst_case_miso(net9, 2, [2, 5]) == base_miso
        assert ops.tied_argmax_sets(net9, 0, 3) == base_ties
        assert list(ops.enumerate_binding_sets(net9)) == base_sets


def test_candidate_cache_keeps_the_chunking(net9, monkeypatch):
    """A network's layout is packed per ``CHUNK``, so the chunk-invariance
    tests scan each chunking for real: case9's 63 live candidates (66 less
    the 3 that bind a dead branch) take 63 kernel calls at ``CHUNK`` 1, 12
    at 7 (a generator subset that does not fit in the open chunk starts a
    new one, so its 36, 8, 8 and 8 sets of four subsets take 6, 2, 2 and 2
    chunks, and the single sets of (0, 1), (0, 2) and (1, 2) join the open
    ones) and one at the default, whichever ran first. The registry holds
    the layout of the last ``CHUNK`` scanned: a scan at the same ``CHUNK``
    packs nothing, one at another packs again and never reads chunks of
    the other size."""
    calls, packs = [], []
    chunks = sensitivity._chunks

    def counting(net, rows, loads):
        calls.append(len(rows))
        return reduced_solve(net, rows, loads)

    def packing(net, size):
        packs.append(size)
        return chunks(net, size)

    monkeypatch.setattr(sensitivity, "reduced_solve", counting)
    monkeypatch.setattr(sensitivity, "_chunks", packing)
    assert candidate_count(net9) == 66
    sensitivity._LAYOUTS.pop(net9, None)
    default, last = sensitivity.CHUNK, None
    for chunk, want in ((default, 1), (default, 1), (1, 63), (7, 12), (7, 12), (default, 1)):
        monkeypatch.setattr(sensitivity, "CHUNK", chunk)
        calls.clear()
        packs.clear()
        ops.worst_case_all(net9)
        assert (len(calls), sum(calls), max(calls) <= chunk) == (want, 63, True)
        assert packs == ([] if chunk == last else [chunk])
        size, layout = sensitivity._LAYOUTS[net9]
        assert (size, len(layout)) == (chunk, want)
        last = chunk


def test_layout_is_dropped_with_its_network():
    """The registry keeps no network alive: once a scanned network is
    collected, its layout is gone."""
    net = _path_network(5)
    ops.worst_case_all(net)
    assert sensitivity._LAYOUTS[net][1] is not None
    held = len(sensitivity._LAYOUTS)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None
    assert len(sensitivity._LAYOUTS) < held


def test_large_layout_is_kept_as_none_and_streams(monkeypatch):
    """A layout past :data:`CACHED_BYTES` is registered as None: the first
    scan tries to pack it and then streams, each later scan only streams,
    and every report is the one of a kept layout."""
    def report(net):
        rep = ops.worst_case_all(net)
        return rep.cwc.tobytes(), rep.argmax, rep.candidates_valid

    kept = report(_path_network(30))
    packs = []
    chunks = sensitivity._chunks

    def packing(net, size):
        packs.append(size)
        return chunks(net, size)

    monkeypatch.setattr(sensitivity, "_chunks", packing)
    monkeypatch.setattr(sensitivity, "CACHED_BYTES", -1)
    net, size = _path_network(30), sensitivity.CHUNK
    for want in ([size, size], [size]):
        packs.clear()
        assert report(net) == kept
        assert packs == want
        assert sensitivity._LAYOUTS[net] == (size, None)


def test_cached_chunks_are_the_packed_chunks(net9, chain18, chain27, monkeypatch):
    """One packer: on case9, every stage network of the 27-bus chain and the
    18-bus chain, the registered layout holds the batches the scan
    otherwise builds as it goes, field by field, and the scan yields ``==``
    rows and solutions whether the layout is kept or streamed. Each of the
    15 stage networks packs a layout of its own."""
    net27 = chain27[0]
    stages = {}
    for i in range(net27.n_gen):
        for j in range(net27.n_load):
            for s in ops.chain_partition(net27, i, j).stages:
                stages.setdefault(id(s.network), s.network)
    assert len(stages) == 15
    nets = [net9, *stages.values(), chain18[0]]
    assert sorted(set(map(candidate_count, nets))) == [66, 78, 364, 455, 1820, 53130]
    layouts = [_check_cache_agrees(net, range(net.n_load), monkeypatch) for net in nets]
    assert len(set(map(id, layouts))) == len(nets)


def _check_cache_agrees(net, loads, monkeypatch):
    """The registered chunks of ``net`` are the :func:`_chunks` it packs,
    field by field, and the scan yields ``==`` rows and solutions for
    ``loads`` whether it reads them from the registry or, with
    ``CACHED_BYTES`` below any layout, builds them as it goes. Returns the
    chunks; the registry is left without ``net``."""
    sensitivity._LAYOUTS.pop(net, None)
    try:
        used = list(sensitivity._scan(net, loads))
        size, cached = sensitivity._LAYOUTS[net]
        built = list(sensitivity._chunks(net, size))
        assert (size, len(cached)) == (sensitivity.CHUNK, len(built))
        for a, b in zip(cached, built):
            for field in dataclasses.fields(SetBatch):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
        with monkeypatch.context() as m:
            m.setattr(sensitivity, "CACHED_BYTES", -1)
            del sensitivity._LAYOUTS[net]
            bypassed = list(sensitivity._scan(net, loads))
            assert sensitivity._LAYOUTS[net] == (size, None)
        assert len(used) == len(bypassed)
        for solved, want in zip(used, bypassed):
            for field in dataclasses.fields(Solved):
                assert np.array_equal(getattr(solved, field.name), getattr(want, field.name))
    finally:
        sensitivity._LAYOUTS.pop(net, None)
    return cached


def test_compact_layout_does_not_wrap(monkeypatch):
    """Two generators at the ends of a path of 300 branches have pool rows
    up to 301, past the 8-bit dtypes: every chunk is cached, holds the pool
    rows of the lexicographic candidates, and the scan's sets and Jacobians
    are those of each set's own block solved one at a time (bit for bit,
    but for the sign of a zero); the worst-case report is ``==`` whether
    the chunks come from the registry or not."""
    net = _path_network(300)
    loads = np.arange(net.n_load)
    cached = _check_cache_agrees(net, loads, monkeypatch)
    keys = oracles.lex_candidates(net)
    rows = np.array([pool_rows(net, BindingSet(*key)) for key in keys])
    assert np.array_equal(np.concatenate([batch.rows for batch in cached]), rows)
    assert rows.max() == 301 and len(rows) == 302
    with np.errstate(divide="ignore", invalid="ignore"):
        want_ok, want = oracles.block_solve(net, rows, loads)
    scanned = list(sensitivity._scan(net, loads))
    assert np.array_equal(np.concatenate([solved.rows for solved in scanned]), rows[want_ok])
    assert _same_bits(np.concatenate([solved.jacobian_rows(range(net.n_gen))
                                      for solved in scanned]), want)
    report = ops.worst_case_all(net)
    with monkeypatch.context() as m:
        m.setattr(sensitivity, "CACHED_BYTES", -1)
        sensitivity._LAYOUTS.pop(net)
        streamed = ops.worst_case_all(net)
    assert ((report.cwc.tobytes(), report.argmax, report.candidates_valid)
            == (streamed.cwc.tobytes(), streamed.argmax, streamed.candidates_valid))


def test_chain18_layout_is_cached_compact(chain18):
    """The 18-bus chain's 45 chunks of 41851 live candidates are kept at
    the default ``CHUNK`` in under 0.5 MB of arrays (3.02 MB as ``intp``);
    its layouts at ``CHUNK`` 1 and 7 pass :data:`CACHED_BYTES` and are
    built as the scan goes."""
    net = chain18[0]
    chunks = sensitivity._packed(net, sensitivity.CHUNK)
    assert (len(chunks), sum(map(len, chunks))) == (45, 41851)
    held = sum(getattr(batch, field.name).nbytes
               for batch in chunks for field in dataclasses.fields(SetBatch))
    assert held <= 512 * 1024
    for chunk in (1, 7):
        assert sensitivity._packed(net, chunk) is None


def test_report_holds_no_scan_buffer(chain18):
    """A kept report's table owns memory of its own size, not the scan's
    running-maximum array it was read from."""
    cwc = ops.worst_case_all(chain18[0]).cwc
    assert (cwc if cwc.base is None else cwc.base).nbytes == cwc.nbytes


def _planted_stream(seed, length=64, width=3):
    """Score rows on the plateaus 1, 2 and 3, each lowered by nothing or by
    exactly, just under or just over ``TIE_TOL``, by half of it (a record
    the plateau raises within the tolerance) or by twice it (one it raises
    past it); with 64 rows, ties fall on both sides of the chunk boundaries
    at 7."""
    rng = np.random.default_rng(seed)
    plateaus = rng.integers(1, 4, (length, width)).astype(float)
    offsets = -TIE_TOL * np.array([0.0, 1.0, 0.999, 1.001, 0.5, 2.0])
    return plateaus + rng.choice(offsets, (length, width))


def _planted_chunks(rows, vals, chunk):
    """``vals``, one column per load, as the solutions of a one-generator
    network in chunks of ``chunk`` sets: the reference row holds them."""
    for i in range(0, len(vals), chunk):
        y = vals[i : i + chunk].T[None]
        yield Solved(rows=rows[i : i + chunk], y=y, slots=np.zeros((1, 1), int),
                     bounds=np.array([0, y.shape[2]]))


@pytest.mark.parametrize("all_ties", [False, True])
def test_fold_matches_one_record_tie_rule(monkeypatch, all_ties):
    """The chunked fold, live columns only, keeps exactly the records of the
    tie rule applied one record at a time, whatever the chunking: ties at
    exactly and just inside TIE_TOL of the maximum, some straddling chunk
    boundaries. The planted values are one generator's Jacobian row, read
    set by set for one load column and from run maxima for three."""
    net = SimpleNamespace(n_gen=1)  # pool row 1 + t is the key ((), (t,))
    at_tol = 0
    for seed, width in itertools.product(range(12), (1, 3)):
        vals = _planted_stream(seed, width=width)
        rows = 1 + np.arange(len(vals))[:, None]
        sets = [BindingSet(*key) for key in oracles.row_keys(net, rows)]
        want_best, want_kept, want_valid = oracles.fold(zip(vals.tolist(), sets), TIE_TOL, all_ties)
        at_tol += sum(value == best - TIE_TOL for kept, best in zip(want_kept, want_best)
                      for value, _ in kept)
        for chunk in (1, 7, sensitivity.CHUNK):
            monkeypatch.setattr(sensitivity, "_scan",
                                lambda net, loads: _planted_chunks(rows, vals, chunk))
            best, kept, valid = sensitivity._fold(net, range(width), [0], all_ties=all_ties)
            assert best.tolist() == want_best
            assert kept == want_kept
            assert valid == want_valid == len(vals)
    assert at_tol  # some kept records sit exactly TIE_TOL below their maximum


def _materialized(net, loads, score, all_ties=False):
    """The fold as it was: each chunk's Jacobians assembled in full by
    ``Solved.jacobian_rows``, scored per set by ``score`` and folded one
    record at a time by ``oracles.fold``."""
    records = []
    for solved in sensitivity._scan(net, loads):
        vals = score(solved.jacobian_rows(range(net.n_gen)))
        records += zip(vals.tolist(), oracles.row_keys(net, solved.rows))
    best, kept, valid = oracles.fold(records, TIE_TOL, all_ties)
    return np.array(best), kept, [key for _, key in records]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _fold_queries(net):
    """Reference answers of the table, SISO, ties, MISO and enumeration
    queries on a few pairs, from :func:`_materialized`, and a function that
    asks the package the same and compares: values byte for byte, sets,
    ties, valid counts and key order ``==``."""
    n_g, n_l = net.n_gen, net.n_load
    pairs = sorted({(0, 0), (n_g - 1, n_l - 1), (n_g // 2, n_l // 2)})
    load_sets = [sorted({0, n_l - 1}), list(range(n_l))]
    best, kept, keys = _materialized(net, range(n_l), lambda jac: np.abs(jac).reshape(len(jac), -1))
    want = {"all": (_bits(best.reshape(n_g, n_l)), [BindingSet(*k[0][1]) for k in kept], len(keys)),
            "sets": [BindingSet(*key) for key in keys]}
    for g, l in pairs:
        for all_ties in (False, True):
            best, kept, _ = _materialized(net, [l], lambda jac: np.abs(jac[:, g]), all_ties)
            want[g, l, all_ties] = (_bits(best[0]), [BindingSet(*key) for _, key in kept[0]])
    for g, loads in itertools.product((0, n_g - 1), load_sets):
        best, kept, _ = _materialized(
            net, loads, lambda jac: np.linalg.norm(jac[:, g], axis=1)[:, None])
        want[g, tuple(loads)] = (_bits(best[0]), BindingSet(*kept[0][0][1]))

    def check():
        rep = ops.worst_case_all(net)
        argmax = [bset for row in rep.argmax for bset in row]
        assert (_bits(rep.cwc), argmax, rep.candidates_valid) == want["all"]
        assert list(ops.enumerate_binding_sets(net)) == want["sets"]
        for g, l in pairs:
            val, bset = ops.worst_case_siso(net, g, l)
            assert (_bits(val), [bset]) == (want[g, l, False][0], want[g, l, False][1][:1])
            val, argmax, ties = ops.tied_argmax_sets(net, g, l)
            assert (_bits(val), ties) == want[g, l, True] and argmax == ties[0]
        for g, loads in itertools.product((0, n_g - 1), load_sets):
            val, bset = ops.worst_case_miso(net, g, loads)
            assert (_bits(val), bset) == want[g, tuple(loads)]

    return check


def _small_random_networks():
    rng = np.random.default_rng(19)
    return [_random_network(rng, 7, n_gen, 3) for n_gen in (2, 3, 3, 4)]


def test_fold_from_solutions_matches_materialized_fold(net9, monkeypatch):
    """The fold reads chunk maxima and live values off the solutions: on
    case9 and seeded random networks, at ``CHUNK`` 1, 7 and the default,
    every query answers as the fold over fully assembled Jacobians does."""
    for net in (net9, *_small_random_networks()):
        check = _fold_queries(net)
        for chunk in (1, 7, sensitivity.CHUNK):
            monkeypatch.setattr(sensitivity, "CHUNK", chunk)
            check()


def test_fold_from_solutions_matches_materialized_fold_chain18(chain18):
    """The same on the 18-bus chain at the default ``CHUNK``; criterion 8
    carries its table to ``CHUNK`` 1 and 7, and ``-m slow`` every query."""
    _fold_queries(chain18[0])()


@pytest.mark.slow
def test_fold_from_solutions_matches_materialized_fold_chain18_chunks(chain18, monkeypatch):
    """Every query of :func:`_fold_queries` on the 18-bus chain at ``CHUNK``
    1 and 7."""
    check = _fold_queries(chain18[0])
    for chunk in (1, 7):
        monkeypatch.setattr(sensitivity, "CHUNK", chunk)
        check()


def test_reports_share_interned_sets(net9, chain18):
    """Reports hold one object per distinct argmax set, across reports and
    tie lists too, and 20 kept reports of the 18-bus chain retain at most
    3 KB each."""
    net = chain18[0]
    first = ops.worst_case_all(net)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = [ops.worst_case_all(net) for _ in range(20)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 20 * 3 * 1024
    shared = {}
    for rep in [first, *reports]:
        assert rep.argmax == first.argmax
        for bset in itertools.chain.from_iterable(rep.argmax):
            assert shared.setdefault(bset, bset) is bset
    assert len(shared) < 72 == net.n_gen * net.n_load
    _, argmax, ties = ops.tied_argmax_sets(net9, 0, 3)
    again = ops.tied_argmax_sets(net9, 0, 3)[2]
    assert len(ties) > 1 and all(a is b for a, b in zip(ties, again, strict=True))
    assert ops.worst_case_siso(net9, 0, 3)[1] is argmax is ties[0]


def test_tied_argmax_contains_gen_branch_equivalents(net9):
    """Binding a leaf generator and binding its spur give the same map, so
    the tie list must contain both flavors."""
    val, argmax, ties = ops.tied_argmax_sets(net9, 0, 3)  # (gen 1, load 7)
    assert argmax in ties
    flavors = {(t.gens, t.branches) for t in ties}
    assert ((), (3, 5)) in flavors   # spur (3,6) + line (7,8)
    assert ((2,), (5,)) in flavors   # generator 3 + line (7,8)


def test_sample_lower_bound(net9, params9):
    wc, _ = ops.worst_case_siso(net9, 2, 5)
    res = ops.sample_lower_bound(
        net9, params9, 2, 5,
        box_low=np.full(6, 0.1), box_high=np.full(6, 0.5),
        samples=30, seed=4,
    )
    assert res.samples_used + res.samples_degenerate == 30
    assert res.samples_used > 0
    assert res.value <= wc + 1e-9


def test_sample_lower_bound_skips_degenerate_samples(net9, params9, loads9):
    """At equal costs case9's vertex is degenerate at its nominal loads, so
    a box of that one point uses no sample and bounds nothing; a box from
    0.5x to 1.5x nominal finds regular points among them."""
    equal = dataclasses.replace(params9, cost=np.ones(3))
    at_nominal = ops.sample_lower_bound(net9, equal, 0, 0, loads9, loads9, samples=20, seed=1)
    assert at_nominal == dcopf.SampledBound(0.0, samples_used=0, samples_degenerate=20)
    boxed = ops.sample_lower_bound(net9, equal, 0, 0, 0.5 * loads9, 1.5 * loads9,
                                   samples=20, seed=1)
    assert (boxed.samples_used, boxed.samples_degenerate) == (5, 15)
    assert boxed.value > 0.0


def test_sample_box_must_be_ordered(net9, params9, monkeypatch):
    """A box whose low corner exceeds its high corner anywhere, or whose
    corners are not load vectors of the network, is a domain error raised
    before any LP is solved, not a numpy error."""
    monkeypatch.setattr(dcopf, "solve_opf", None)  # any LP solve would fail with a TypeError
    low, high = np.full(6, 0.1), np.full(6, 0.5)
    low[3] = 0.6
    with pytest.raises(InvalidLoad, match="box_low exceeds box_high at load 3"):
        ops.sample_lower_bound(net9, params9, 2, 5, box_low=low, box_high=high)
    with pytest.raises(DimensionMismatch):
        ops.sample_lower_bound(net9, params9, 2, 5, box_low=low[:5], box_high=high)


@pytest.mark.parametrize("samples, seed", [
    (2.5, 0), (0, 0), (-3, 0), (10, -1), (10, 1.5), ("10", 0), (10, None),
])
def test_sample_count_and_seed_checked(net9, params9, monkeypatch, samples, seed):
    """A sample count that is not a positive integer, or a seed that is not
    a nonnegative integer, is a domain error raised before any LP is solved,
    not a bare TypeError, numpy's ValueError or an empty bound of 0."""
    monkeypatch.setattr(dcopf, "solve_opf", None)  # any LP solve would fail with a TypeError
    with pytest.raises(InvalidSampling):
        ops.sample_lower_bound(net9, params9, 2, 5, box_low=np.full(6, 0.1),
                               box_high=np.full(6, 0.5), samples=samples, seed=seed)


@pytest.mark.parametrize("samples, seed", [(True, 0), (5, False)])
def test_sample_count_and_seed_refuse_bools(net9, params9, monkeypatch, samples, seed):
    """A bool is no sample count or seed, as it is no index: ``True`` does
    not draw one sample."""
    monkeypatch.setattr(dcopf, "solve_opf", None)  # any LP solve would fail with a TypeError
    with pytest.raises(InvalidSampling, match="must be integers"):
        ops.sample_lower_bound(net9, params9, 2, 5, box_low=np.full(6, 0.1),
                               box_high=np.full(6, 0.5), samples=samples, seed=seed)
