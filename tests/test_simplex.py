"""LP solver tests against an independent solver (HiGHS via scipy), and
byte for byte against the dense-tableau reference in ``oracles``."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize as sopt

import opfsens as ops
from opfsens import dcopf
from opfsens.errors import Infeasible, OpfSensError, Unbounded
from opfsens.simplex import solve_lp

import oracles

#: a maximally degenerate vertex: all rhs zero on two rows
DEGENERATE_LP = (
    np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]),
    np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ]),
    np.array([0.0, 0.0, 1.0]),
)
#: a duplicated constraint row
REDUNDANT_LP = (
    np.array([1.0, 1.0, 0.0]),
    np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
    np.array([2.0, 2.0]),
)
#: x1 + x2 = -1 with x >= 0
INFEASIBLE_LP = (np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([-1.0]))
#: min -x st x - y = 0: x = y can grow forever
UNBOUNDED_LP = (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))

LP_FIELDS = ("x", "basis", "duals", "reduced_costs", "iterations", "objective")


def test_basic_lp():
    # min -x - 2y st x + y + s1 = 4, x + 3y + s2 = 6: optimum at (3, 1)
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    res = solve_lp(c, a, b)
    assert res.objective == pytest.approx(-5.0)
    assert res.x[:2] == pytest.approx([3.0, 1.0])


def test_duals_satisfy_optimality():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m, n = 5, 9
        a = rng.standard_normal((m, n))
        x_feas = rng.uniform(0.5, 1.5, n)
        b = a @ x_feas  # feasible by construction
        c = rng.uniform(0.0, 2.0, n)
        res = solve_lp(c, a, b)
        ref = sopt.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-8)
        # optimality: reduced costs nonnegative, zero on the basis
        rc = c - a.T @ res.duals
        assert rc.min() > -1e-8
        assert np.abs(rc[res.basis]).max() < 1e-8
        assert np.abs(a @ res.x - b).max() < 1e-8


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_lp(*INFEASIBLE_LP)


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_lp(*UNBOUNDED_LP)


def test_degenerate_lp_terminates():
    # Bland's rule must terminate and agree with the reference solver
    c, a, b = DEGENERATE_LP
    res = solve_lp(c, a, b)
    ref = sopt.linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)


def test_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 7))
    b = a @ rng.uniform(0.5, 1.0, 7)
    c = rng.uniform(0.0, 1.0, 7)
    r1 = solve_lp(c, a, b)
    r2 = solve_lp(c, a, b)
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.basis, r2.basis)
    assert np.array_equal(r1.duals, r2.duals)


def test_redundant_row_dropped():
    # the solver must still finish with correct duals
    c, a, b = REDUNDANT_LP
    res = solve_lp(c, a, b)
    assert res.objective == pytest.approx(0.0)
    assert np.abs(a @ res.x - b).max() < 1e-9


def _outcome(solve, c, a, b):
    """Every field of the solution as dtype, shape and bytes, or the type
    and message of the error raised."""
    try:
        res = solve(c, a, b)
    except OpfSensError as exc:
        return type(exc), str(exc)
    fields = (np.asarray(getattr(res, name)) for name in LP_FIELDS)
    return tuple((v.dtype.str, v.shape, v.tobytes()) for v in fields)


def _networks(request):
    return {
        "case9": (request.getfixturevalue("net9"), request.getfixturevalue("params9")),
        "chain18": request.getfixturevalue("chain18"),
        "chain27": request.getfixturevalue("chain27"),
    }


def _dispatch_lps(net, params, seed: int, count: int):
    """``(c, a, b)`` of seeded dispatch LPs: costs and loads drawn as the
    benchmark's dispatch workload draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = ops.OpfParams(rng.uniform(0.5, 5.0, net.n_gen), params.gen_upper,
                          params.gen_lower, params.flow_upper, params.flow_lower)
        a, b, c, _ = dcopf._equality_form(net, p, rng.uniform(0.1, 0.5, net.n_load))
        yield c, a, b


def _redundant_lps(seed: int, count: int):
    """Small LPs with a redundant last row (a copy of a row, or a random
    combination of the rows) and sparse feasible points, so phase 1 ends
    with artificials basic at zero: the drive-out step both pivots and
    drops rows."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        a = rng.standard_normal((4, 8))
        a = np.vstack([a, rng.standard_normal(4) @ a if k % 2 else a[k % 4]])
        x = rng.uniform(0.0, 1.0, 8) * (rng.uniform(size=8) < 0.25)
        yield rng.uniform(-0.5, 2.0, 8), a, a @ x


@pytest.mark.parametrize("lp", [DEGENERATE_LP, REDUNDANT_LP, INFEASIBLE_LP, UNBOUNDED_LP],
                         ids=["degenerate", "redundant", "infeasible", "unbounded"])
def test_small_lps_match_dense_reference(lp):
    """Same bytes in every field as the dense-tableau simplex, and the same
    error where there is no optimum."""
    assert _outcome(solve_lp, *lp) == _outcome(oracles.solve_lp, *lp)


def test_redundant_lps_match_dense_reference():
    for lp in _redundant_lps(11, 40):
        assert _outcome(solve_lp, *lp) == _outcome(oracles.solve_lp, *lp)


@pytest.mark.parametrize("name", ["case9", "chain18", "chain27"])
def test_dispatch_lps_match_dense_reference(request, name):
    """40 seeded dispatch LPs per network: primal, basis, duals, reduced
    costs, iteration count and objective byte for byte."""
    net, params = _networks(request)[name]
    for lp in _dispatch_lps(net, params, 5, 40):
        assert _outcome(solve_lp, *lp) == _outcome(oracles.solve_lp, *lp)


@pytest.mark.slow
def test_dispatch_lps_match_dense_reference_1200(request):
    """400 seeded dispatch LPs on each of case9 and the two chains."""
    for net, params in _networks(request).values():
        for lp in _dispatch_lps(net, params, 6, 400):
            assert _outcome(solve_lp, *lp) == _outcome(oracles.solve_lp, *lp)
