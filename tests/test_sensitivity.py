"""Worst-case search: enumeration, SISO/MISO maxima, chunking, tie rule."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import opfsens as ops
from opfsens import sensitivity
from opfsens.errors import EmptyLoadSet, NoValidSet
from opfsens.jacobian import BindingSet, SetBatch, reduced_solve
from opfsens.network import assemble_network
from opfsens.sensitivity import TIE_TOL, candidate_count

import oracles
from conftest import random_regular_params


def test_candidate_count_case9(net9):
    # C(3,0)C(9,2) + C(3,1)C(9,1) + C(3,2)C(9,0)
    assert candidate_count(net9) == 36 + 27 + 3 == 66


def test_network_without_generators_has_no_candidates():
    net = assemble_network([], [1, 2], [(1, 2, 1.0)])
    assert candidate_count(net) == 0
    with pytest.raises(NoValidSet):
        ops.worst_case_all(net)


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


@pytest.mark.parametrize("combo_rows", [sensitivity.COMBO_ROWS, 40, 1])
def test_candidate_order_matches_itertools(net9, chain18, two_bus, monkeypatch, combo_rows):
    """The numpy-built candidate rows list every set once, in the
    lexicographic order itertools gives, each block with the generator
    subset its rows bind, also when long combination lists are built a
    prefix at a time from a short table."""
    monkeypatch.setattr(sensitivity, "COMBO_ROWS", combo_rows)
    star = assemble_network([1, 2], [3], [(1, 3, 5.0), (2, 3, 7.0)])
    for net in (net9, chain18[0], two_bus[0], star):
        keys = [key for gens in sensitivity._gen_subsets(net.n_gen)
                for rows in sensitivity._subset_rows(gens, net.n_gen, net.n_edge)
                for key in sensitivity._keys(net, rows) if key[0] == gens]
        assert keys == oracles.lex_candidates(net)


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
    """Candidate chunks cached per network shape are cached per ``CHUNK``
    too, so the chunk-invariance tests scan each chunking for real: case9's
    66 candidates take 66 kernel calls at ``CHUNK`` 1, 12 at 7 (a generator
    subset that does not fit in the open chunk starts a new one, so its 36,
    9, 9 and 9 sets of four subsets take 6, 2, 2 and 2 chunks, and the
    single sets of (0, 1), (0, 2) and (1, 2) join the open ones) and one at
    the default, whichever ran first."""
    calls = []

    def counting(net, rows, loads):
        calls.append(len(rows))
        return reduced_solve(net, rows, loads)

    monkeypatch.setattr(sensitivity, "reduced_solve", counting)
    assert candidate_count(net9) == 66 <= sensitivity.CACHED_CANDIDATES
    default = sensitivity.CHUNK
    for chunk, want in ((default, 1), (1, 66), (7, 12), (default, 1)):
        monkeypatch.setattr(sensitivity, "CHUNK", chunk)
        calls.clear()
        ops.worst_case_all(net9)
        assert len(calls) == want
        assert sum(calls) == 66


def test_cached_chunks_are_the_packed_chunks(net9, chain18, chain27, monkeypatch):
    """One packer: on case9, the four shapes of the 27-bus stages and the
    18-bus chain, the per-shape cache holds the batches the scan otherwise
    builds as it goes, field by field, and the scan yields ``==`` rows and
    Jacobians whether the cache is used or bypassed."""
    net27 = chain27[0]
    stages = {}
    for i in range(net27.n_gen):
        for j in range(net27.n_load):
            for s in ops.chain_partition(net27, i, j).stages:
                stages.setdefault((s.network.n_gen, s.network.n_edge), s.network)
    nets = [net9, *stages.values(), chain18[0]]
    assert sorted(map(candidate_count, nets)) == [66, 78, 364, 455, 1820, 53130]
    try:
        for net in nets:
            shape = (net.n_gen, net.n_edge, sensitivity.CHUNK)
            cached = sensitivity._cached_chunks(*shape)
            built = list(sensitivity._chunks(*shape))
            assert len(cached) == len(built)
            for a, b in zip(cached, built):
                for field in dataclasses.fields(SetBatch):
                    assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
            scans = []
            for limit in (candidate_count(net), -1):
                monkeypatch.setattr(sensitivity, "CACHED_CANDIDATES", limit)
                scans.append(list(sensitivity._scan(net, range(net.n_load))))
            used, bypassed = scans
            assert len(used) == len(bypassed)
            for (rows, jac), (want_rows, want) in zip(used, bypassed):
                assert np.array_equal(rows, want_rows)
                assert np.array_equal(jac, want)
    finally:
        sensitivity._cached_chunks.cache_clear()


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


@pytest.mark.parametrize("all_ties", [False, True])
def test_fold_matches_one_record_tie_rule(monkeypatch, all_ties):
    """The chunked fold, live columns only, keeps exactly the records of the
    tie rule applied one record at a time, whatever the chunking: ties at
    exactly and just inside TIE_TOL of the maximum, some straddling chunk
    boundaries."""
    net = SimpleNamespace(n_gen=1)  # pool row 1 + t is the key ((), (t,))
    at_tol = 0
    for seed in range(12):
        vals = _planted_stream(seed)
        rows = 1 + np.arange(len(vals))[:, None]
        want_best, want_kept, want_valid = oracles.fold(
            zip(vals.tolist(), sensitivity._keys(net, rows)), TIE_TOL, all_ties)
        at_tol += sum(value == best - TIE_TOL for kept, best in zip(want_kept, want_best)
                      for value, _ in kept)
        for chunk in (1, 7, sensitivity.CHUNK):
            monkeypatch.setattr(sensitivity, "_scan", lambda net, loads: (
                (rows[i : i + chunk], vals[i : i + chunk]) for i in range(0, len(vals), chunk)))
            best, kept, valid = sensitivity._fold(net, (), lambda jac: jac, all_ties)
            assert best.tolist() == want_best
            assert kept == want_kept
            assert valid == want_valid == len(vals)
    assert at_tol  # some kept records sit exactly TIE_TOL below their maximum


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
