"""DC optimal power flow: solve the dispatch LP, expose dual multipliers,
and extract validated binding-constraint sets.

The problem in network terms::

    minimize    f' s_g
    subject to  theta_1 = 0
                L theta = [s_g; -s_l]
                gen_lower  <= s_g           <= gen_upper
                flow_lower <= B C' theta    <= flow_upper

Internally the equalities are solved as genuine equalities (the reference
angle is eliminated). The doubled-inequality standard form, the reference
that the independence test (:func:`jacobian.independence_check`) is checked
against, is built by the test suite's oracles alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import jacobian as _jac
from .errors import DegeneratePoint, DimensionMismatch, InvalidLoad
from .network import Network, OpfParams
from .simplex import solve_lp

logger = logging.getLogger(__name__)

#: absolute tolerance (per-unit) for calling a constraint binding
BINDING_TOL = 1e-7

#: tolerance for dual magnitudes / uniqueness in regularity checks
REGULARITY_TOL = 1e-9


def check_load(net: Network, load: np.ndarray) -> np.ndarray:
    """Validate a load vector: one finite, nonnegative entry per load bus.

    Strict positivity (the domain where the sensitivity theory lives) is not
    enforced, so that stock case files with zero-demand buses remain
    solvable.
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (net.n_load,):
        raise DimensionMismatch(f"load has shape {load.shape}, want ({net.n_load},)")
    if not np.all(np.isfinite(load)) or np.any(load < 0):
        raise InvalidLoad("loads must be finite and nonnegative")
    return load


@dataclass(frozen=True)
class OpfSolution:
    """Primal/dual solution of one dispatch LP.

    ``dual_eq`` stacks the multipliers of the nodal balance rows (length
    ``n_bus``) followed by the reference-angle row, matching the KKT
    convention in which the angle-gradient condition reads
    ``[L; e_1'] ' tau + C B (mu_up - mu_lo) = 0``.
    """

    gen: np.ndarray
    theta: np.ndarray
    flows: np.ndarray
    objective: float
    dual_eq: np.ndarray
    dual_gen_upper: np.ndarray
    dual_gen_lower: np.ndarray
    dual_flow_upper: np.ndarray
    dual_flow_lower: np.ndarray
    min_basic_value: float
    min_nonbasic_rc: float


def _equality_form(net: Network, params: OpfParams, load: np.ndarray):
    """Equality-form LP over nonnegative variables.

    Variables: ``[s_g, theta+_red, theta-_red, t_gu, t_gl, t_fu, t_fl]``
    where the reference angle is eliminated (``theta_1 = 0`` exactly) and the
    remaining angles are split into positive/negative parts.
    """
    n, n_g, m = net.n_bus, net.n_gen, net.n_edge
    nr = n - 1  # reduced angle coordinates

    lap_red = net.laplacian[:, 1:]
    bct_red = net.flow_matrix[:, 1:]
    w = np.zeros((n, n_g))
    w[:n_g, :] = np.eye(n_g)

    n_var = n_g + 2 * nr + 2 * n_g + 2 * m
    sl = {}
    ofs = n_g
    sl["tp"] = slice(ofs, ofs + nr); ofs += nr
    sl["tm"] = slice(ofs, ofs + nr); ofs += nr
    sl["gu"] = slice(ofs, ofs + n_g); ofs += n_g
    sl["gl"] = slice(ofs, ofs + n_g); ofs += n_g
    sl["fu"] = slice(ofs, ofs + m); ofs += m
    sl["fl"] = slice(ofs, ofs + m); ofs += m

    rows = n + 2 * n_g + 2 * m
    a = np.zeros((rows, n_var))
    b = np.empty(rows)
    r = 0
    # nodal balance: L theta - W s_g = [0; -s_l]
    a[r : r + n, :n_g] = -w
    a[r : r + n, sl["tp"]] = lap_red
    a[r : r + n, sl["tm"]] = -lap_red
    b[r : r + n] = np.concatenate([np.zeros(n_g), -load])
    r += n
    # generator bounds
    a[r : r + n_g, :n_g] = np.eye(n_g)
    a[r : r + n_g, sl["gu"]] = np.eye(n_g)
    b[r : r + n_g] = params.gen_upper
    r += n_g
    a[r : r + n_g, :n_g] = np.eye(n_g)
    a[r : r + n_g, sl["gl"]] = -np.eye(n_g)
    b[r : r + n_g] = params.gen_lower
    r += n_g
    # flow bounds
    a[r : r + m, sl["tp"]] = bct_red
    a[r : r + m, sl["tm"]] = -bct_red
    a[r : r + m, sl["fu"]] = np.eye(m)
    b[r : r + m] = params.flow_upper
    r += m
    a[r : r + m, sl["tp"]] = bct_red
    a[r : r + m, sl["tm"]] = -bct_red
    a[r : r + m, sl["fl"]] = -np.eye(m)
    b[r : r + m] = params.flow_lower

    c = np.zeros(n_var)
    c[:n_g] = params.cost
    return a, b, c, sl


def solve_opf(net: Network, params: OpfParams, load: np.ndarray) -> OpfSolution:
    """Solve the dispatch LP to an optimal basic solution with duals.

    Deterministic: the simplex uses Bland's rule, so identical inputs give
    bit-identical solutions. Raises :class:`Infeasible`, :class:`Unbounded`
    or :class:`NumericalFailure` from the solver.
    """
    load = check_load(net, load)
    params.validate(net)
    n, n_g, m = net.n_bus, net.n_gen, net.n_edge
    nr = n - 1

    a, b, c, sl = _equality_form(net, params, load)
    lp = solve_lp(c, a, b)

    # copies, not views: a kept solution must not hold the LP's whole vectors
    gen = lp.x[:n_g].copy()
    theta = np.concatenate([[0.0], lp.x[sl["tp"]] - lp.x[sl["tm"]]])
    flows = net.flow_matrix @ theta

    y = lp.duals
    y_bal = y[:n]
    y_gu = y[n : n + n_g]
    y_gl = y[n + n_g : n + 2 * n_g]
    y_fu = y[n + 2 * n_g : n + 2 * n_g + m]
    y_fl = y[n + 2 * n_g + m :]

    lam_up = -y_gu
    lam_lo = y_gl + lp.reduced_costs[:n_g]
    mu_up = -y_fu
    mu_lo = y_fl.copy()
    # the eliminated reference-angle multiplier, recovered from stationarity
    tau_bal = -y_bal
    tau_ref = -(net.laplacian[:, 0] @ tau_bal + net.incidence[0] @ (
        net.susceptances * (mu_up - mu_lo)
    ))
    dual_eq = np.concatenate([tau_bal, [tau_ref]])

    # uniqueness diagnostics: ignore split-angle twins (pure representation)
    rc = lp.reduced_costs.copy()
    nonbasic = np.ones(rc.shape[0], dtype=bool)
    nonbasic[lp.basis] = False
    nonbasic[sl["tp"]] = False
    nonbasic[sl["tm"]] = False
    min_rc = float(rc[nonbasic].min()) if nonbasic.any() else np.inf

    structural = lp.basis[(lp.basis < n_g) | (lp.basis >= n_g + 2 * nr)]
    min_basic = float(lp.x[structural].min()) if structural.size else np.inf

    return OpfSolution(
        gen=gen,
        theta=theta,
        flows=flows,
        objective=lp.objective,
        dual_eq=dual_eq,
        dual_gen_upper=lam_up,
        dual_gen_lower=lam_lo,
        dual_flow_upper=mu_up,
        dual_flow_lower=mu_lo,
        min_basic_value=min_basic,
        min_nonbasic_rc=min_rc,
    )


@dataclass(frozen=True)
class KktReport:
    """Max-norm residuals of the KKT system at a candidate solution."""

    stationarity_theta: float
    stationarity_gen: float
    primal_equality: float
    primal_inequality: float
    dual_sign: float
    complementarity: float

    @property
    def max_residual(self) -> float:
        return max(
            self.stationarity_theta,
            self.stationarity_gen,
            self.primal_equality,
            self.primal_inequality,
            self.dual_sign,
            self.complementarity,
        )


def kkt_residuals(
    sol: OpfSolution, net: Network, params: OpfParams, load: np.ndarray
) -> KktReport:
    """Evaluate stationarity, feasibility, sign and complementarity residuals."""
    load = check_load(net, load)
    n, n_g = net.n_bus, net.n_gen
    tau = sol.dual_eq
    mu_diff = sol.dual_flow_upper - sol.dual_flow_lower

    # 0 = M' tau + C B (mu+ - mu-) with M = [L; e_1']
    e1 = np.zeros(n)
    e1[0] = 1.0
    stat_theta = net.laplacian @ tau[:n] + e1 * tau[n] + net.incidence @ (
        net.susceptances * mu_diff
    )
    # -f = -tau[:n_g] + lambda+ - lambda-
    stat_gen = (
        -params.cost + tau[:n_g] - sol.dual_gen_upper + sol.dual_gen_lower
    )

    balance = net.laplacian @ sol.theta - np.concatenate([sol.gen, -load])
    primal_eq = max(abs(sol.theta[0]), float(np.abs(balance).max()))

    viol = [
        sol.gen - params.gen_upper,
        params.gen_lower - sol.gen,
        sol.flows - params.flow_upper,
        params.flow_lower - sol.flows,
    ]
    primal_ineq = float(max(np.concatenate(viol).max(), 0.0))

    signs = np.concatenate([
        sol.dual_gen_upper, sol.dual_gen_lower,
        sol.dual_flow_upper, sol.dual_flow_lower,
    ])
    dual_sign = float(max(-signs.min(), 0.0)) if signs.size else 0.0

    comp = np.concatenate([
        sol.dual_gen_upper * (sol.gen - params.gen_upper),
        sol.dual_gen_lower * (params.gen_lower - sol.gen),
        sol.dual_flow_upper * (sol.flows - params.flow_upper),
        sol.dual_flow_lower * (params.flow_lower - sol.flows),
    ])
    complementarity = float(np.abs(comp).max()) if comp.size else 0.0

    return KktReport(
        stationarity_theta=float(np.abs(stat_theta).max()),
        stationarity_gen=float(np.abs(stat_gen).max()),
        primal_equality=primal_eq,
        primal_inequality=primal_ineq,
        dual_sign=dual_sign,
        complementarity=complementarity,
    )


def _at_limit(value: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> tuple[int, ...]:
    """Indices of the entries within :data:`BINDING_TOL` of either limit."""
    gap = np.minimum(np.abs(value - upper), np.abs(value - lower))
    return tuple(int(i) for i in np.flatnonzero(gap <= BINDING_TOL))


def extract_binding_set(sol: OpfSolution, net: Network, params: OpfParams) -> _jac.BindingSet:
    """Read the binding generators and branches off a solved instance: those
    within :data:`BINDING_TOL` of a limit.

    Raises :class:`DegeneratePoint` when the binding-inequality count is not
    ``n_gen - 1`` (the load sits outside the regular region) and
    :class:`DependentBindings` when the set fails the independence test.
    """
    gens = _at_limit(sol.gen, params.gen_upper, params.gen_lower)
    branches = _at_limit(sol.flows, params.flow_upper, params.flow_lower)
    count = len(gens) + len(branches)
    if count != net.n_gen - 1:
        raise DegeneratePoint(
            f"{count} binding inequalities, expected {net.n_gen - 1} "
            f"(gens {gens}, branches {branches})"
        )
    bset = _jac.BindingSet(gens=gens, branches=branches)
    _jac.require_independent(net, bset)
    return bset


@dataclass(frozen=True)
class RegularityReport:
    """Diagnostics for the uniqueness / dual-count conditions."""

    nonzero_inequality_duals: int
    nonzero_equality_duals: int
    unique: bool
    degenerate_vertex: bool


def check_regularity(sol: OpfSolution) -> RegularityReport:
    """Count significant dual variables and flag non-unique optima.

    Inequality duals (generator and flow bounds) are counted together;
    equality-row multipliers are reported separately. The uniqueness flag is
    true when the optimal vertex is nondegenerate and every nonbasic reduced
    cost is strictly positive; "significant" and "strictly" both mean beyond
    :data:`REGULARITY_TOL`.
    """
    ineq = np.concatenate([
        sol.dual_gen_upper, sol.dual_gen_lower,
        sol.dual_flow_upper, sol.dual_flow_lower,
    ])
    n_ineq = int(np.sum(np.abs(ineq) > REGULARITY_TOL))
    n_eq = int(np.sum(np.abs(sol.dual_eq) > REGULARITY_TOL))
    degenerate = sol.min_basic_value <= REGULARITY_TOL
    unique = (not degenerate) and sol.min_nonbasic_rc > REGULARITY_TOL
    return RegularityReport(
        nonzero_inequality_duals=n_ineq,
        nonzero_equality_duals=n_eq,
        unique=unique,
        degenerate_vertex=degenerate,
    )


def solve_opf_regular(
    net: Network, params: OpfParams, load: np.ndarray
) -> tuple[OpfSolution, OpfParams]:
    """Solve, and if the optimum is detectably non-unique, retry once with a
    small deterministic cost perturbation (magnitude ``1e-6 * ||f||_inf``).

    Returns the solution together with the cost vector actually used.
    """
    sol = solve_opf(net, params, load)
    if check_regularity(sol).unique:
        return sol, params
    rng = np.random.default_rng(0)
    scale = 1e-6 * max(float(np.abs(params.cost).max()), 1.0)
    perturbed = OpfParams(
        cost=params.cost + rng.uniform(0.0, scale, size=net.n_gen),
        gen_upper=params.gen_upper,
        gen_lower=params.gen_lower,
        flow_upper=params.flow_upper,
        flow_lower=params.flow_lower,
    )
    logger.info("cost vector perturbed by uniform noise <= %.3e to restore uniqueness", scale)
    return solve_opf(net, perturbed, load), perturbed
