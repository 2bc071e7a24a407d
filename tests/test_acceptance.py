"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import opfsens as ops
from opfsens import sensitivity
from opfsens.errors import OpfSensError
from opfsens.jacobian import BindingSet

from conftest import random_regular_params


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS ({text})")


def test_criterion_1_worst_case_table(net9, table9):
    """All 18 published 9-bus worst-case entries to 1e-3."""
    t0 = time.perf_counter()
    rep = ops.worst_case_all(net9)
    elapsed = time.perf_counter() - t0
    assert rep.candidates_total == 66
    assert np.abs(rep.cwc - table9).max() < 1e-3
    assert rep.cwc[0, 0] == pytest.approx(1.0000, abs=1e-3)   # (1 <- 4)
    assert rep.cwc[1, 1] == pytest.approx(2.9560, abs=1e-3)   # (2 <- 5)
    assert rep.cwc[2, 5] == pytest.approx(3.0081, abs=1e-3)   # (3 <- 9)
    assert rep.cwc[0, 3] == pytest.approx(2.4748, abs=1e-3)   # (1 <- 7)
    assert elapsed < 1.0
    _report(1, f"9-bus table reproduced, 18/18 entries within 1e-3 ({elapsed:.3f}s)")


def test_criterion_2_jacobian_oracle_equivalence(net9, params9):
    """>= 20 random regular instances: binding-formula Jacobian matches the
    central-difference Jacobian to 1e-5 at step 1e-4."""
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 200, "sampling regular instances should be easy"
        params = random_regular_params(params9, rng)
        load = rng.uniform(0.1, 0.5, net9.n_load)
        try:
            sol = ops.solve_opf(net9, params, load)
            bset = ops.extract_binding_set(sol, net9, params)
            fd = ops.jacobian_finite_diff(net9, params, load, step=1e-4)
        except OpfSensError:
            continue
        jac = ops.jacobian_from_binding(net9, bset).jac
        err = float(np.abs(jac - fd).max())
        worst = max(worst, err)
        assert err <= 1e-5
        checked += 1
    _report(2, f"{checked} regular instances, max |J_bind - J_fd| = {worst:.2e} <= 1e-5")


def test_criterion_3_conservation_invariants(net9):
    """Every valid enumerated set: column sums 1 within 1e-8, binding rows
    zero within 1e-9."""
    count = 0
    for bset in ops.enumerate_binding_sets(net9):
        jac = ops.jacobian_from_binding(net9, bset).jac
        assert np.abs(jac.sum(axis=0) - 1.0).max() < 1e-8
        if bset.gens:
            assert np.abs(jac[list(bset.gens)]).max() < 1e-9
        count += 1
    assert count == 60
    _report(3, f"column-sum and zero-row invariants hold on all {count} valid sets")


def test_criterion_4_cut_structure(net9):
    """Cut-structure theorem test: every independent set whose branches
    disconnect the graph keeps a non-binding generator per component, and the
    all-generators-of-a-component-plus-cut construction is always rejected."""
    cut_sets = 0
    for bset in ops.enumerate_binding_sets(net9):
        res = ops.structural_check(net9, bset)
        assert res.passed
        if not res.vacuous:
            cut_sets += 1
    # proof construction: each generator spur is a cut isolating its generator
    for g, spur in ((0, 0), (1, 6), (2, 3)):
        bad = BindingSet(gens=(g,), branches=(spur,))
        assert not ops.independence_check(net9, bad)
        assert not ops.structural_check(net9, bad).passed
    _report(4, f"free-generator property on {cut_sets} cut sets; "
               "3/3 violating constructions rejected")


def test_criterion_5_decomposition_desk_scale(chain18):
    """2-copy chain: decomposed equals direct enumeration (53130 candidates)
    within 1e-6 for all first-copy generators x all 12 loads."""
    net, _ = chain18
    t0 = time.perf_counter()
    direct = ops.worst_case_all(net)
    assert direct.candidates_total == 53130
    worst = 0.0
    for i in range(3):
        for j in range(net.n_load):
            res = ops.worst_case_decomposed(net, i, j)
            err = abs(res.value - direct.cwc[i, j])
            worst = max(worst, err)
            assert err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(5, f"36/36 pairs: |decomposed - direct| <= {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_6_27bus_reconstruction(chain27, table27):
    """Published 27-bus values via the reconstructed tie topology, plus the
    constraints reported active for every pairing. The degraded fallback
    assertions (exact product identity, middle multiplier > 1) are included
    and hold regardless."""
    net, _ = chain27
    worst = 0.0
    for i in range(3):
        for j, bus in enumerate(range(4, 10)):
            lj = net.index_of(f"{bus}''") - net.n_gen
            res = ops.worst_case_decomposed(net, i, lj, collect_ties=True)
            err = abs(res.value - table27[i, j])
            worst = max(worst, err)
            assert err < 1e-3

            # exact product identity and the middle-copy multiplier effect
            assert res.value == pytest.approx(float(np.prod(res.factors)), rel=1e-12)
            assert len(res.stages) == 3
            assert res.factors[1] > 1.0

            # constraints listed as active for every pairing must appear
            # among the per-stage worst-case binding sets
            def tie_names(stage_result):
                gens, branches = set(), set()
                for t in stage_result.ties:
                    d = t.describe(stage_result.stage.network)
                    gens.update(str(g) for g in d["generators"])
                    branches.update((str(u), str(v)) for u, v in d["branches"])
                return gens, branches

            g0, b0 = tie_names(res.stages[0])
            g1, b1 = tie_names(res.stages[1])
            assert ("7", "8") in b0          # first-copy line (7,8)
            assert "1'" in g1                # middle-copy generator 1'
            assert ("5'", "6'") in b1        # middle-copy line (5',6')
    named = {(0, 3): 18.1045, (2, 5): 5.4213}
    for (i, j), val in named.items():
        lj = net.index_of(f"{4 + j}''") - net.n_gen
        assert ops.worst_case_decomposed(net, i, lj).value == pytest.approx(val, abs=1e-3)
    _report(6, f"27-bus table reproduced (max err {worst:.2e}); "
               "globally-active constraints present in every pairing's report")


@pytest.mark.slow
def test_27bus_table_by_direct_enumeration(chain27, table27):
    """The published 27-bus table by the direct scan of all 48,903,492
    candidate sets, with no decomposition (about two minutes), and every one
    of the 162 decomposed worst cases against it. The scan builds its
    candidates a branch prefix at a time: C(29, 8) exceeds ``COMBO_ROWS``."""
    net, _ = chain27
    t0 = time.perf_counter()
    rep = ops.worst_case_all(net)
    elapsed = time.perf_counter() - t0
    assert rep.candidates_total == 48_903_492
    assert rep.candidates_valid == 5_022_960
    last_copy = [net.index_of(f"{bus}''") - net.n_gen for bus in range(4, 10)]
    assert np.abs(rep.cwc[:3, last_copy] - table27).max() < 1e-3
    worst = 0.0
    for i in range(net.n_gen):
        for j in range(net.n_load):
            value = ops.worst_case_decomposed(net, i, j).value
            worst = max(worst, abs(value - rep.cwc[i, j]) / rep.cwc[i, j])
    assert worst <= 1e-12
    _report(6, f"27-bus table by direct enumeration ({elapsed:.0f}s); "
               f"162 decomposed pairs within {worst:.1e} relative")


def test_criterion_7_kkt_validation(net9, params9, loads9):
    """Every solved instance satisfies stationarity, feasibility, sign, and
    complementarity at 1e-8."""
    rng = np.random.default_rng(77)
    worst = 0.0
    solved = 0
    cases = [(params9, loads9)]
    for _ in range(15):
        cases.append((random_regular_params(params9, rng), rng.uniform(0.1, 0.5, 6)))
    for params, load in cases:
        sol = ops.solve_opf(net9, params, load)
        kkt = ops.kkt_residuals(sol, net9, params, load)
        worst = max(worst, kkt.max_residual)
        assert kkt.max_residual <= 1e-8
        solved += 1
    _report(7, f"{solved} solves, max KKT residual {worst:.2e} <= 1e-8")


def test_criterion_8_chunk_determinism(net9, chain18, monkeypatch):
    """Criterion 1 and criterion 5 computations are bit-identical for scan
    chunks of 1, 7 and the default number of candidate sets."""
    default = sensitivity.CHUNK
    base9 = ops.worst_case_all(net9)
    base18 = ops.worst_case_all(chain18[0])
    for chunk in (1, 7):
        monkeypatch.setattr(sensitivity, "CHUNK", chunk)
        for base, net in ((base9, net9), (base18, chain18[0])):
            rep = ops.worst_case_all(net)
            assert np.array_equal(rep.cwc, base.cwc)
            assert rep.argmax == base.argmax
            assert rep.candidates_valid == base.candidates_valid
    _report(8, f"reports bit-identical across scan chunks of 1, 7 and {default} sets")


def test_criterion_9_trivial_closure(two_bus):
    """The single-generator network gives J = [[1.0]], worst case 1.0 and an
    empty binding set through every code path."""
    net, params = two_bus
    bset = BindingSet((), ())

    jac = ops.jacobian_from_binding(net, bset).jac
    assert jac == pytest.approx(np.array([[1.0]]), abs=1e-12)

    fd = ops.jacobian_finite_diff(net, params, np.array([0.5]), step=1e-4)
    assert fd[0, 0] == pytest.approx(1.0, abs=1e-9)

    sets = list(ops.enumerate_binding_sets(net))
    assert sets == [bset]

    val, arg = ops.worst_case_siso(net, 0, 0)
    assert val == pytest.approx(1.0, abs=1e-12) and arg == bset

    rep = ops.worst_case_all(net)
    assert rep.cwc[0, 0] == pytest.approx(1.0, abs=1e-12)

    dec = ops.worst_case_decomposed(net, 0, 0)
    assert dec.value == pytest.approx(1.0, abs=1e-12)
    assert dec.stages[0].argmax == bset

    sol = ops.solve_opf(net, params, np.array([0.5]))
    assert ops.extract_binding_set(sol, net, params) == bset
    _report(9, "two-bus closure: J = [[1.0]] and empty set via formula, "
               "finite difference, enumeration, extraction, decomposition")
