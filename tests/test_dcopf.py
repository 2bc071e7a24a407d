"""Dispatch LP tests: standard form, solving, duals, binding sets, regularity."""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
import pytest
import scipy.optimize as sopt

import opfsens as ops
from opfsens import linalg
from opfsens.cli import main
from opfsens.errors import (
    DegeneratePoint, DependentBindings, DimensionMismatch, Infeasible, InvalidLoad,
)
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


def test_one_bus_network_without_generators():
    """A lone load bus: at zero load the dispatch is empty, and any other
    load is infeasible, not numpy's error from an LP without columns."""
    net = assemble_network([], [1], [])
    params = ops.OpfParams([], [], [], [], [])
    sol = ops.solve_opf(net, params, [0.0])
    assert (sol.objective, sol.gen.size, sol.flows.size, sol.theta.tolist()) == (0.0, 0, 0, [0.0])
    with pytest.raises(Infeasible):
        ops.solve_opf(net, params, [1.0])


@pytest.fixture(scope="module")
def chain90(net9, params9):
    """Ten case9 copies, each tied 7 -> 4 to the next: a 90-bus chain."""
    return ops.build_chain(net9, params9, 10, [ops.TieLine(k, 7, k + 1, 4) for k in range(9)])


@pytest.mark.parametrize("name", ["case9", "chain18", "chain27", "chain90"])
def test_objective_against_reference(request, name):
    """On 20 seeded cost and load draws (4 on the 90-bus chain), the
    objective equals HiGHS on the oracles' doubled-inequality standard
    form, which shares no code with the package's tableau, within 1e-9
    relative, and the solution passes the KKT check to 1e-8: a slip in
    assembling the tableau fails here."""
    if name == "case9":
        net, params = request.getfixturevalue("net9"), request.getfixturevalue("params9")
    else:
        net, params = request.getfixturevalue(name)
    rng = np.random.default_rng(28)
    for _ in range(4 if name == "chain90" else 20):
        p = ops.OpfParams(rng.uniform(0.5, 5.0, net.n_gen), params.gen_upper,
                          params.gen_lower, params.flow_upper, params.flow_lower)
        load = rng.uniform(0.1, 0.5, net.n_load)
        sol = ops.solve_opf(net, p, load)
        sf = oracles.standard_form(net, p, load)
        ref = sopt.linprog(sf.c, A_ub=sf.a, b_ub=sf.b, bounds=(None, None), method="highs")
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
        assert ops.kkt_residuals(sol, net, p, load).max_residual <= 1e-8


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


SOLUTION_VECTORS = ("gen", "theta", "flows", "dual_eq", "dual_gen_upper",
                    "dual_gen_lower", "dual_flow_upper", "dual_flow_lower")
SOLUTION_SCALARS = ("objective", "min_basic_value", "min_nonbasic_rc")


def test_solution_is_one_owned_buffer(net9, params9, loads9):
    """A kept solution holds one owned float buffer of exactly its values,
    the scalars then the eight vectors as views, and no view of the LP's
    whole primal or dual vector."""
    sol = ops.solve_opf(net9, params9, loads9)
    vectors = [getattr(sol, name) for name in SOLUTION_VECTORS]
    buf = sol.gen.base
    assert buf.flags.owndata and buf.dtype == np.float64
    assert all(v.base is buf for v in vectors)
    scalars = [sol.objective, sol.min_basic_value, sol.min_nonbasic_rc]
    assert buf.tobytes() == np.concatenate([scalars, *vectors]).tobytes()
    assert [r for r in gc.get_referents(sol) if isinstance(r, np.ndarray)] == [buf]
    assert not hasattr(sol, "__dict__")


def test_kept_solutions_are_small(net9, params9):
    """Bytes kept per solution under tracemalloc: its values plus at most
    600 bytes (measured: 419, against 1166 with one owned array per vector
    and a ``__dict__``)."""
    rng = np.random.default_rng(8)
    loads = [rng.uniform(0.1, 0.5, net9.n_load) for _ in range(21)]
    first = ops.solve_opf(net9, params9, loads[0])
    values = 8 * (3 + sum(getattr(first, name).size for name in SOLUTION_VECTORS))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [ops.solve_opf(net9, params9, load) for load in loads[1:]]
        per_solution = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_solution <= values + 600


def test_solution_keyword_constructor_and_read_only(net9, params9, loads9):
    sol = ops.solve_opf(net9, params9, loads9)
    fields = {name: getattr(sol, name) for name in SOLUTION_VECTORS}
    fields.update(objective=sol.objective, min_basic_value=sol.min_basic_value,
                  min_nonbasic_rc=sol.min_nonbasic_rc)
    again = ops.OpfSolution(**fields)
    for name, value in fields.items():
        assert np.asarray(getattr(again, name)).tobytes() == np.asarray(value).tobytes()
    assert type(again.objective) is float
    with pytest.raises(AttributeError):
        again.objective = 0.0
    with pytest.raises(AttributeError):
        again.gen = np.zeros(3)


def test_solution_takes_every_field_by_keyword(net9, params9, loads9):
    """A missing, unknown or positional field is a TypeError naming the
    fields, and the repr names every field once."""
    sol = ops.solve_opf(net9, params9, loads9)
    fields = {name: getattr(sol, name) for name in SOLUTION_VECTORS + SOLUTION_SCALARS}
    missing = {k: v for k, v in fields.items() if k != "theta"}
    for bad in (missing, {**fields, "thetas": sol.theta}):
        with pytest.raises(TypeError, match="takes exactly the fields objective, .*, theta, "):
            ops.OpfSolution(**bad)
    with pytest.raises(TypeError):
        ops.OpfSolution(*fields.values())
    text = repr(sol)
    assert text.startswith("OpfSolution(") and text.endswith(")")
    for name in fields:
        assert text.count(f" {name}=") + text.startswith(f"OpfSolution({name}=") == 1


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


def test_extracted_sets_are_shared(net9, params9):
    """Two dispatch points in the same region report the same object."""
    rng = np.random.default_rng(2)
    params = random_regular_params(params9, rng)
    load = rng.uniform(0.1, 0.5, 6)
    first = ops.extract_binding_set(ops.solve_opf(net9, params, load), net9, params)
    second = ops.extract_binding_set(ops.solve_opf(net9, params, load * 1.001), net9, params)
    assert first == second
    assert first is second


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


def test_chain_scale_solve(chain27, case9, net9):
    """A 27-bus solve (104-row LP) stays clean: balance, KKT, determinism."""
    net, params = chain27
    loads = np.tile(ops.nominal_loads(case9, net9), 3)
    s1 = ops.solve_opf(net, params, loads)
    s2 = ops.solve_opf(net, params, loads)
    assert np.array_equal(s1.gen, s2.gen)
    assert s1.gen.sum() == pytest.approx(loads.sum(), abs=1e-8)
    assert ops.kkt_residuals(s1, net, params, loads).max_residual <= 1e-8


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


@pytest.mark.parametrize("reader", ["kkt_residuals", "extract_binding_set"])
@pytest.mark.parametrize("mismatch", ["params", "solution"])
def test_point_readers_check_their_inputs(net9, params9, loads9, chain27, reader, mismatch):
    """A dispatch point's readers refuse limits or a solution of another
    network with DimensionMismatch, not a numpy broadcast error: the
    27-bus chain's limits with a case9 point, and a case9 solution with
    the 27-bus chain."""
    net27, params27 = chain27
    sol9 = ops.solve_opf(net9, params9, loads9)
    net, params, load = {"params": (net9, params27, loads9),
                         "solution": (net27, params27, np.tile(loads9, 3))}[mismatch]
    args = (sol9, net, params, load)[: 4 if reader == "kkt_residuals" else 3]
    with pytest.raises(DimensionMismatch, match="has shape" if mismatch == "params" else "solution"):
        getattr(ops, reader)(*args)


@pytest.mark.parametrize("dual", SOLUTION_VECTORS[3:])
def test_point_readers_check_dual_lengths(net9, params9, loads9, dual):
    """A hand-built case9 solution with one dual vector an entry short is
    refused with DimensionMismatch, not a numpy matmul, broadcast or index
    error, by both readers of a dispatch point."""
    sol = ops.solve_opf(net9, params9, loads9)
    fields = {name: getattr(sol, name) for name in SOLUTION_VECTORS}
    fields[dual] = fields[dual][:-1]
    short = ops.OpfSolution(**fields, objective=sol.objective, min_basic_value=sol.min_basic_value,
                            min_nonbasic_rc=sol.min_nonbasic_rc)
    with pytest.raises(DimensionMismatch, match=f"solution {dual} has length"):
        ops.kkt_residuals(short, net9, params9, loads9)
    with pytest.raises(DimensionMismatch, match=f"solution {dual} has length"):
        ops.extract_binding_set(short, net9, params9)


#: case9 loads at which branch 8-2 binds alongside generator 3
BRANCH_BINDING_LOADS = "0.8,0.6,1.3,1.3,0.9,0.9"


@pytest.mark.parametrize("via", ["library", "cli"])
def test_dependent_point_raises(net9, params9, capsys, monkeypatch, via):
    """A point whose binding set fails the independence test raises
    DependentBindings from extract_binding_set, and the CLI exits 1 with it.
    An LP vertex with n_gen - 1 binding inequalities is exactly independent,
    so the test raises the tolerance to 1, where every block with a branch
    row fails."""
    load = np.array([float(v) for v in BRANCH_BINDING_LOADS.split(",")])
    bset = ops.extract_binding_set(ops.solve_opf(net9, params9, load), net9, params9)
    assert bset.branches
    monkeypatch.setattr(linalg, "RANK_REL_TOL", 1.0)
    if via == "library":
        with pytest.raises(DependentBindings, match=r"^binding set gens=\(2,\) branches=\(6,\)"):
            ops.extract_binding_set(ops.solve_opf(net9, params9, load), net9, params9)
        return
    capsys.readouterr()
    code = main(["sens-local", "--case", str(ops.bundled_case_path()), "--pair", "3", "9",
                 "--loads", BRANCH_BINDING_LOADS, "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "DependentBindings"


@pytest.mark.parametrize("bad", [["a"] * 6, [1j] * 6, [object()] * 6, ["0.5"] * 6,
                                 [b"0.5"] * 6, [True] * 6, [0.5] * 5 + [True]],
                         ids=["str", "complex", "object", "numeric-str", "bytes", "bool",
                              "mixed-bool"])
@pytest.mark.parametrize("call", [
    lambda net, params, good, bad: ops.solve_opf(net, params, bad),
    lambda net, params, good, bad: ops.kkt_residuals(
        ops.solve_opf(net, params, good), net, params, bad),
    lambda net, params, good, bad: ops.local_sensitivity(net, params, bad, 0, 0),
    lambda net, params, good, bad: ops.sample_lower_bound(net, params, 0, 0, bad, good),
    lambda net, params, good, bad: ops.sample_lower_bound(net, params, 0, 0, good, bad),
    lambda net, params, good, bad: ops.jacobian_finite_diff(net, params, bad),
], ids=["solve_opf", "kkt_residuals", "local_sensitivity", "box_low", "box_high",
        "jacobian_finite_diff"])
def test_non_numeric_loads_are_invalid_loads(net9, params9, loads9, call, bad):
    """A load that is not numbers is an InvalidLoad at every entry point that
    takes one, not a bare ValueError or TypeError: text and bools too,
    though numpy reads ``"0.5"`` as 0.5 and ``True`` as 1.0."""
    with pytest.raises(InvalidLoad, match="not an array of numbers"):
        call(net9, params9, loads9, bad)
