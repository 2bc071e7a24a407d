"""Dispatch LP tests: standard form, solving, duals, binding sets, regularity."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize as sopt

import opfsens as ops
from opfsens.dcopf import _equality_form
from opfsens.errors import DegeneratePoint, DimensionMismatch, Infeasible
from opfsens.network import assemble_network

import oracles
from conftest import random_regular_params


def test_standard_form_shape(net9, params9, loads9):
    sf = oracles.standard_form(net9, params9, loads9)
    assert sf.a.shape == (44, 12)  # 2 + 18 + 6 + 18 rows, 3 + 9 columns
    assert sf.b.shape == (44,)
    assert len(sf.row_tags) == 44
    assert sf.row_tags[0] == "slack+"
    assert sf.row_tags[1] == "slack-"
    assert sf.row_tags[2] == "balance+(1)"
    assert sf.row_tags[11] == "balance-(1)"
    assert sf.row_tags[20] == "gen-upper(1)"
    assert sf.row_tags[26] == "flow-upper(0)"
    assert sf.row_tags[43] == "flow-lower(8)"


def test_standard_form_cost_vector(net9, params9, loads9):
    sf = oracles.standard_form(net9, params9, loads9)
    assert np.array_equal(sf.c[:3], params9.cost)
    assert not sf.c[3:].any()


def test_standard_form_doubled_equalities(net9, params9, loads9):
    sf = oracles.standard_form(net9, params9, loads9)
    n = net9.n_bus
    plus = sf.a[2 : 2 + n]
    minus = sf.a[2 + n : 2 + 2 * n]
    assert np.array_equal(plus, -minus)
    assert np.array_equal(sf.b[2 : 2 + n], -sf.b[2 + n : 2 + 2 * n])


def test_standard_form_no_loads():
    net = assemble_network([1, 2], [], [(1, 2, 5.0)])
    params = ops.OpfParams(
        cost=np.ones(2), gen_upper=np.ones(2), gen_lower=np.zeros(2),
        flow_upper=np.ones(1), flow_lower=-np.ones(1),
    )
    with pytest.raises(DimensionMismatch):
        oracles.standard_form(net, params, np.zeros(0))


def test_two_bus_balance(two_bus):
    net, params = two_bus
    sol = ops.solve_opf(net, params, np.array([0.5]))
    assert sol.gen[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.flows[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.theta[0] == 0.0


def test_case9_objective_against_reference(net9, params9, loads9):
    sol = ops.solve_opf(net9, params9, loads9)
    a, b, c, _ = _equality_form(net9, params9, loads9)
    ref = sopt.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)


def test_infeasible_when_load_exceeds_capacity(net9, params9):
    load = np.full(6, 2.0)  # 12 p.u. demand vs 8.2 p.u. capacity
    with pytest.raises(Infeasible):
        ops.solve_opf(net9, params9, load)


def test_solve_deterministic(net9, params9, loads9):
    s1 = ops.solve_opf(net9, params9, loads9)
    s2 = ops.solve_opf(net9, params9, loads9)
    assert np.array_equal(s1.gen, s2.gen)
    assert np.array_equal(s1.theta, s2.theta)
    assert np.array_equal(s1.dual_eq, s2.dual_eq)
    assert s1.objective == s2.objective


def test_solution_arrays_own_their_data(net9, params9, loads9):
    """A kept solution holds no view of the LP's whole primal or dual vector."""
    sol = ops.solve_opf(net9, params9, loads9)
    arrays = [v for v in vars(sol).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 8
    assert all(v.flags.owndata for v in arrays)


def test_lossless_balance_over_random_instances(net9, params9):
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = random_regular_params(params9, rng)
        load = rng.uniform(0.1, 0.5, 6)
        sol = ops.solve_opf(net9, params, load)
        assert abs(sol.gen.sum() - load.sum()) < 1e-8


def test_kkt_residuals_random_instances(net9, params9):
    rng = np.random.default_rng(33)
    for _ in range(10):
        params = random_regular_params(params9, rng)
        load = rng.uniform(0.1, 0.5, 6)
        sol = ops.solve_opf(net9, params, load)
        kkt = ops.kkt_residuals(sol, net9, params, load)
        assert kkt.max_residual <= 1e-8


def test_kkt_detects_perturbed_dual(net9, params9, loads9):
    sol = ops.solve_opf(net9, params9, loads9)
    bumped = ops.OpfSolution(
        gen=sol.gen, theta=sol.theta, flows=sol.flows, objective=sol.objective,
        dual_eq=sol.dual_eq,
        dual_gen_upper=sol.dual_gen_upper + 1e-3,
        dual_gen_lower=sol.dual_gen_lower,
        dual_flow_upper=sol.dual_flow_upper, dual_flow_lower=sol.dual_flow_lower,
        min_basic_value=sol.min_basic_value, min_nonbasic_rc=sol.min_nonbasic_rc,
    )
    kkt = ops.kkt_residuals(bumped, net9, params9, loads9)
    assert kkt.stationarity_gen == pytest.approx(1e-3, rel=1e-6)


def test_kkt_zeroed_duals_fail_stationarity_only(net9, params9, loads9):
    sol = ops.solve_opf(net9, params9, loads9)
    zeroed = ops.OpfSolution(
        gen=sol.gen, theta=sol.theta, flows=sol.flows, objective=sol.objective,
        dual_eq=np.zeros_like(sol.dual_eq),
        dual_gen_upper=np.zeros_like(sol.dual_gen_upper),
        dual_gen_lower=np.zeros_like(sol.dual_gen_lower),
        dual_flow_upper=np.zeros_like(sol.dual_flow_upper),
        dual_flow_lower=np.zeros_like(sol.dual_flow_lower),
        min_basic_value=sol.min_basic_value, min_nonbasic_rc=sol.min_nonbasic_rc,
    )
    kkt = ops.kkt_residuals(zeroed, net9, params9, loads9)
    assert kkt.complementarity == 0.0
    assert kkt.dual_sign == 0.0
    # stationarity must break: f is nonzero but every multiplier vanished
    assert kkt.stationarity_gen == pytest.approx(np.abs(params9.cost).max())


def test_binding_set_regular_point(net9, params9):
    rng = np.random.default_rng(2)
    params = random_regular_params(params9, rng)
    load = rng.uniform(0.1, 0.5, 6)
    sol = ops.solve_opf(net9, params, load)
    bset = ops.extract_binding_set(sol, net9, params)
    assert bset.size == net9.n_gen - 1 == 2


def test_degenerate_point_detected(net9, params9):
    """Generator 1's upper limit coincides with its spur branch rating, so
    driving it to the limit produces three simultaneous bindings."""
    cheap_gen1 = ops.OpfParams(
        cost=np.array([0.1, 10.0, 10.0]),
        gen_upper=params9.gen_upper, gen_lower=params9.gen_lower,
        flow_upper=params9.flow_upper, flow_lower=params9.flow_lower,
    )
    load = np.full(6, 0.55)  # 3.3 p.u. total forces gen 1 to its 2.5 cap
    sol = ops.solve_opf(net9, cheap_gen1, load)
    assert sol.gen[0] == pytest.approx(2.5, abs=1e-9)
    with pytest.raises(DegeneratePoint):
        ops.extract_binding_set(sol, net9, cheap_gen1)


def test_single_congested_line_two_generators():
    net = assemble_network([1, 2], [3, 4], [(1, 3, 10.0), (3, 4, 2.0), (2, 4, 10.0)])
    params = ops.OpfParams(
        cost=np.array([1.0, 5.0]),
        gen_upper=np.array([5.0, 5.0]), gen_lower=np.zeros(2),
        flow_upper=np.array([5.0, 0.3, 5.0]), flow_lower=-np.array([5.0, 0.3, 5.0]),
    )
    sol = ops.solve_opf(net, params, np.array([0.5, 0.9]))
    bset = ops.extract_binding_set(sol, net, params)
    assert bset.gens == ()
    assert bset.branches == (1,)  # the middle line, at its 0.3 limit
    assert abs(sol.flows[1]) == pytest.approx(0.3, abs=1e-9)


def test_regularity_random_cost(net9, params9):
    rng = np.random.default_rng(17)
    params = random_regular_params(params9, rng)
    load = rng.uniform(0.1, 0.5, 6)
    sol = ops.solve_opf(net9, params, load)
    reg = ops.check_regularity(sol)
    assert reg.nonzero_inequality_duals >= net9.n_gen - 1
    assert reg.unique


def test_regularity_zero_cost(net9, params9, loads9):
    free = ops.OpfParams(
        cost=np.zeros(3),
        gen_upper=params9.gen_upper, gen_lower=params9.gen_lower,
        flow_upper=params9.flow_upper, flow_lower=params9.flow_lower,
    )
    sol = ops.solve_opf(net9, free, np.full(6, 0.3))
    assert not ops.check_regularity(sol).unique


def test_regularity_symmetric_costs():
    """Two identical-cost generators feeding one load symmetrically: any
    split is optimal, so the uniqueness flag must be false."""
    net = assemble_network([1, 2], [3], [(1, 3, 5.0), (2, 3, 5.0)])
    params = ops.OpfParams(
        cost=np.array([1.0, 1.0]),
        gen_upper=np.array([2.0, 2.0]), gen_lower=np.zeros(2),
        flow_upper=np.array([3.0, 3.0]), flow_lower=-np.array([3.0, 3.0]),
    )
    sol = ops.solve_opf(net, params, np.array([1.0]))
    assert not ops.check_regularity(sol).unique


def test_solve_opf_regular_perturbs_once(net9, params9, loads9):
    free = ops.OpfParams(
        cost=np.zeros(3),
        gen_upper=params9.gen_upper, gen_lower=params9.gen_lower,
        flow_upper=params9.flow_upper, flow_lower=params9.flow_lower,
    )
    sol, used = ops.solve_opf_regular(net9, free, np.full(6, 0.3))
    assert used is not free  # a perturbed copy was used
    assert np.abs(used.cost).max() <= 1e-6 * 1.0 + 1e-12


def test_chain_scale_solve(chain27, case9, net9):
    """A 27-bus solve (104-row LP) stays clean: balance, KKT, determinism."""
    net, params = chain27
    loads = np.tile(ops.nominal_loads(case9, net9), 3)
    s1 = ops.solve_opf(net, params, loads)
    s2 = ops.solve_opf(net, params, loads)
    assert np.array_equal(s1.gen, s2.gen)
    assert s1.gen.sum() == pytest.approx(loads.sum(), abs=1e-8)
    assert ops.kkt_residuals(s1, net, params, loads).max_residual <= 1e-8


def test_offline_generator_scenario(net9, params9, loads9):
    """An outage modeled by a near-zero output window: the unit contributes
    (almost) nothing and the instance still solves with clean duals."""
    out = ops.offline_generator(params9, 2)  # cheapest unit offline
    sol = ops.solve_opf(net9, out, loads9)
    assert sol.gen[2] <= 1e-5 + 1e-12
    assert sol.gen.sum() == pytest.approx(loads9.sum(), abs=1e-8)
    assert ops.kkt_residuals(sol, net9, out, loads9).max_residual <= 1e-8


def test_binding_set_density(net9, params9):
    """Random cost and interior loads give a regular point (exactly
    n_gen - 1 independent bindings) in at least 90% of draws."""
    rng = np.random.default_rng(101)
    ok = 0
    n = 100
    for _ in range(n):
        params = random_regular_params(params9, rng)
        load = rng.uniform(0.1, 0.5, 6)
        sol = ops.solve_opf(net9, params, load)
        try:
            ops.extract_binding_set(sol, net9, params)
            ok += 1
        except ops.errors.OpfSensError:
            pass
    assert ok >= 0.9 * n
