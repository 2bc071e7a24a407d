"""DC optimal power flow: solve the dispatch LP, expose dual multipliers,
extract validated binding-constraint sets, and analyse operating points
(local sensitivities, sampled lower bounds, finite-difference Jacobians).

The problem in network terms::

    minimize    f' s_g
    subject to  theta_1 = 0
                L theta = [s_g; -s_l]
                gen_lower  <= s_g           <= gen_upper
                flow_lower <= B C' theta    <= flow_upper

Internally one plan in :func:`_equality_form` states the LP's layout over
nonnegative variables, the reference angle eliminated: it fills the tableau,
and :func:`solve_opf` reads the primal and dual blocks back by its widths and
heights. One table, :data:`_SCALARS` then :data:`_VECTORS`, states an
:class:`OpfSolution`'s layout: its properties, its keyword constructor and
every reader of a point take the fields, their lengths and the one view of
the inequality duals from it. The doubled-inequality standard form, the
reference of the independence test (:func:`jacobian.independence_check`),
is built by the test suite's oracles alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import jacobian as _jac
from .errors import (
    DegeneratePoint, DependentBindings, DimensionMismatch, InvalidLoad, InvalidSampling,
    RegionBoundary,
)
from .network import Network, OpfParams, float_array, strict_index
from .simplex import solve_lp

#: absolute tolerance (per-unit) for calling a constraint binding
BINDING_TOL = 1e-7

#: tolerance for dual magnitudes / uniqueness in regularity checks
REGULARITY_TOL = 1e-9


def check_load(net: Network, load: np.ndarray) -> np.ndarray:
    """Validate a load vector: one finite, nonnegative entry per load bus.
    A load that is not numbers (:func:`~opfsens.network.float_array`: text
    and bools are not) raises :class:`InvalidLoad`.

    Strict positivity (the domain where the sensitivity theory lives) is not
    enforced, so that stock case files with zero-demand buses remain
    solvable.
    """
    try:
        load = float_array(load)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidLoad(f"load is not an array of numbers: {exc}") from None
    if load.shape != (net.n_load,):
        raise DimensionMismatch(f"load has shape {load.shape}, want ({net.n_load},)")
    if not np.all(np.isfinite(load)) or np.any(load < 0):
        raise InvalidLoad("loads must be finite and nonnegative")
    return load


#: an :class:`OpfSolution`'s fields, the layout of its one buffer: the
#: scalars, then the vectors, the inequality duals last in the order of the
#: LP's bound bands
_SCALARS = ("objective", "min_basic_value", "min_nonbasic_rc")
_VECTORS = ("gen", "theta", "flows", "dual_eq",
            "dual_gen_upper", "dual_gen_lower", "dual_flow_upper", "dual_flow_lower")
_FIRST_INEQUALITY_DUAL = _VECTORS.index("dual_gen_upper")


def _lengths(net: Network) -> tuple[int, ...]:
    """The length of each of :data:`_VECTORS` on ``net``."""
    n_g, n, m = net.n_gen, net.n_bus, net.n_edge
    return (n_g, n, m, n + 1, n_g, n_g, m, m)


@lru_cache(maxsize=64)
def _block_slices(sizes: tuple[int, ...], start: int = 0) -> tuple[slice, ...]:
    """Slices of blocks of ``sizes`` laid end to end from ``start``, shared
    by every user of one layout: the dispatch LP's column blocks and row
    bands, and a solution's vectors after its scalars."""
    ends = tuple(accumulate(sizes, initial=start))
    return tuple(map(slice, ends[:-1], ends[1:]))


def _with_fields(cls):
    """Bind each field of :data:`_SCALARS` and :data:`_VECTORS` as a
    read-only property serving its part of the buffer."""
    for k, name in enumerate(_SCALARS):
        setattr(cls, name, property(lambda self, k=k: float(self._buf[k])))
    for k, name in enumerate(_VECTORS):
        setattr(cls, name, property(lambda self, k=k: self._buf[self._slices[k]]))
    return cls


@_with_fields
class OpfSolution:
    """Primal/dual solution of one dispatch LP, built from every field by keyword.

    ``dual_eq`` stacks the multipliers of the nodal balance rows (length
    ``n_bus``) followed by the reference-angle row, matching the KKT
    convention in which the angle-gradient condition reads
    ``[L; e_1'] ' tau + C B (mu_up - mu_lo) = 0``.

    Every value lives in one owned float buffer laid out by :data:`_SCALARS`
    then :data:`_VECTORS`, the vectors served as views of it, so a kept
    solution holds that buffer alone, no vector of the LP. Read-only.
    """

    __slots__ = ("_buf", "_slices")

    def __init__(self, **fields) -> None:
        names = _SCALARS + _VECTORS
        if fields.keys() != set(names):
            raise TypeError(f"OpfSolution takes exactly the fields {', '.join(names)} "
                            f"by keyword, got {', '.join(fields) or 'none'}")
        vectors = [fields[name] for name in _VECTORS]
        self._buf = np.concatenate(([fields[name] for name in _SCALARS], *vectors), dtype=float)
        self._slices = _block_slices(tuple(map(len, vectors)), len(_SCALARS))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _SCALARS + _VECTORS)
        return f"OpfSolution({fields})"

    @property
    def _inequality_duals(self) -> np.ndarray:
        """The four inequality duals as one view, in :data:`_VECTORS` order."""
        return self._buf[self._slices[_FIRST_INEQUALITY_DUAL].start:]


def _equality_form(net: Network, params: OpfParams, load: np.ndarray):
    """Equality-form LP ``a x = b``, ``x >= 0``, minimizing ``c' x``, and its
    layout ``(widths, heights)``, from one plan: the widths of the column
    blocks ``s_g, theta+, theta-, t_gu, t_gl, t_fu, t_fl`` (the angles less
    the reference one, split by sign, then a slack per bound row), and the
    right-hand side and nonzero blocks of each row band: nodal balance
    ``-W s_g + L_r theta = [0; -s_l]``, then the generator and flow bounds.
    """
    n, n_g, m = net.n_bus, net.n_gen, net.n_edge
    lap, bct = net.laplacian[:, 1:], net.flow_matrix[:, 1:]
    eye_g, eye_m = np.eye(n_g), np.eye(m)
    widths = (n_g, n - 1, n - 1, n_g, n_g, m, m)
    bands = (  # (right-hand side, {column block: coefficients})
        (np.concatenate([np.zeros(n_g), -load]), {0: -np.eye(n, n_g), 1: lap, 2: -lap}),
        (params.gen_upper, {0: eye_g, 3: eye_g}),
        (params.gen_lower, {0: eye_g, 4: -eye_g}),
        (params.flow_upper, {1: bct, 2: -bct, 5: eye_m}),
        (params.flow_lower, {1: bct, 2: -bct, 6: -eye_m}),
    )
    heights = tuple(len(rhs) for rhs, _ in bands)
    cols = _block_slices(widths)
    a = np.zeros((sum(heights), sum(widths)))
    for rows, (_, blocks) in zip(_block_slices(heights), bands):
        for k, block in blocks.items():
            a[rows, cols[k]] = block
    b = np.concatenate([rhs for rhs, _ in bands])
    c = np.concatenate([params.cost, np.zeros(sum(widths) - n_g)])
    return a, b, c, (widths, heights)


def solve_opf(net: Network, params: OpfParams, load: np.ndarray) -> OpfSolution:
    """Solve the dispatch LP to an optimal basic solution with duals.

    Deterministic: the simplex uses Bland's rule, so identical inputs give
    bit-identical solutions. Raises :class:`Infeasible`, :class:`Unbounded`
    or :class:`NumericalFailure` from the solver.
    """
    load = check_load(net, load)
    params.validate(net)

    a, b, c, (widths, heights) = _equality_form(net, params, load)
    lp = solve_lp(c, a, b)

    # views of the LP's blocks: OpfSolution copies them into its one buffer
    cols = _block_slices(widths)
    gen, theta_p, theta_m, *_ = (lp.x[s] for s in cols)
    theta = np.concatenate([[0.0], theta_p - theta_m])
    flows = net.flow_matrix @ theta

    y_bal, y_gu, y_gl, y_fu, y_fl = (lp.duals[s] for s in _block_slices(heights))
    lam_up = -y_gu
    lam_lo = y_gl + lp.reduced_costs[cols[0]]
    mu_up = -y_fu
    mu_lo = y_fl
    # the eliminated reference-angle multiplier, recovered from stationarity
    tau_bal = -y_bal
    tau_ref = -(net.laplacian[:, 0] @ tau_bal + net.incidence[0] @ (
        net.susceptances * (mu_up - mu_lo)
    ))
    dual_eq = np.concatenate([tau_bal, [tau_ref]])

    # uniqueness diagnostics: ignore split-angle twins (pure representation)
    rc = lp.reduced_costs
    twin = np.repeat([False, True, True, False, False, False, False], widths)
    nonbasic = ~twin
    nonbasic[lp.basis] = False
    min_rc = float(rc[nonbasic].min()) if nonbasic.any() else np.inf

    structural = lp.basis[~twin[lp.basis]]
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
        return max(vars(self).values())


def kkt_residuals(
    sol: OpfSolution, net: Network, params: OpfParams, load: np.ndarray
) -> KktReport:
    """Evaluate stationarity, feasibility, sign and complementarity residuals.
    The load, the limits and the solution must fit ``net``."""
    load = check_load(net, load)
    _check_point(sol, net, params)
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
    stat_gen = -params.cost + tau[:n_g] - sol.dual_gen_upper + sol.dual_gen_lower

    balance = net.laplacian @ sol.theta - np.concatenate([sol.gen, -load])
    primal_eq = max(abs(sol.theta[0]), float(np.abs(balance).max()))

    # each inequality's gap, <= 0 when it holds, beside its dual
    gap = np.concatenate([
        sol.gen - params.gen_upper, params.gen_lower - sol.gen,
        sol.flows - params.flow_upper, params.flow_lower - sol.flows,
    ])
    duals = sol._inequality_duals
    primal_ineq = float(max(gap.max(), 0.0)) if gap.size else 0.0
    dual_sign = float(max(-duals.min(), 0.0)) if duals.size else 0.0
    complementarity = float(np.abs(duals * gap).max()) if gap.size else 0.0

    return KktReport(
        stationarity_theta=float(np.abs(stat_theta).max()),
        stationarity_gen=float(np.abs(stat_gen).max()),
        primal_equality=primal_eq,
        primal_inequality=primal_ineq,
        dual_sign=dual_sign,
        complementarity=complementarity,
    )


def _check_point(sol: OpfSolution, net: Network, params: OpfParams) -> None:
    """Raise unless ``params`` passes :meth:`OpfParams.validate` on ``net``
    and the solution's primal and dual vectors fit ``net``."""
    params.validate(net)
    for name, want in zip(_VECTORS, _lengths(net)):
        got = len(getattr(sol, name))
        if got != want:
            raise DimensionMismatch(f"solution {name} has length {got}, want {want}")


def _at_limit(value: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> tuple[int, ...]:
    """Indices of the entries within :data:`BINDING_TOL` of either limit."""
    gap = np.minimum(np.abs(value - upper), np.abs(value - lower))
    return tuple(int(i) for i in np.flatnonzero(gap <= BINDING_TOL))


def extract_binding_set(sol: OpfSolution, net: Network, params: OpfParams) -> _jac.BindingSet:
    """Read the binding generators and branches off a solved instance: those
    within :data:`BINDING_TOL` of a limit.

    Raises :class:`DegeneratePoint` when the binding-inequality count is not
    ``n_gen - 1`` (the load sits outside the regular region) and
    :class:`DependentBindings` when the set fails the independence test
    (:func:`jacobian.independence_check`). The limits and the solution must
    fit ``net``, as in :func:`kkt_residuals`.
    """
    _check_point(sol, net, params)
    gens = _at_limit(sol.gen, params.gen_upper, params.gen_lower)
    branches = _at_limit(sol.flows, params.flow_upper, params.flow_lower)
    count = len(gens) + len(branches)
    if count != net.n_gen - 1:
        raise DegeneratePoint(
            f"{count} binding inequalities, expected {net.n_gen - 1} "
            f"(gens {gens}, branches {branches})"
        )
    bset = _jac.interned_binding_set(gens, branches)
    if not _jac.independence_check(net, bset):
        raise DependentBindings(f"binding set gens={gens} branches={branches} is dependent: "
                                "its reduced block fails the independence test")
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
    n_ineq = int(np.sum(np.abs(sol._inequality_duals) > REGULARITY_TOL))
    n_eq = int(np.sum(np.abs(sol.dual_eq) > REGULARITY_TOL))
    degenerate = sol.min_basic_value <= REGULARITY_TOL
    unique = (not degenerate) and sol.min_nonbasic_rc > REGULARITY_TOL
    return RegularityReport(
        nonzero_inequality_duals=n_ineq,
        nonzero_equality_duals=n_eq,
        unique=unique,
        degenerate_vertex=degenerate,
    )


def local_sensitivity(
    net: Network,
    params: OpfParams,
    load: np.ndarray,
    gen: int,
    load_idx: int,
) -> float:
    """|J_ij| at the binding set realized by this load: the local Lipschitz
    constant of generator ``gen`` w.r.t. load ``load_idx`` inside the
    active-set region containing ``load``."""
    net.check_pair(gen, load_idx)
    sol = solve_opf(net, params, load)
    bset = extract_binding_set(sol, net, params)
    jac = _jac.jacobian_from_binding(net, bset).jac
    return abs(float(jac[gen, load_idx]))


@dataclass(frozen=True)
class SampledBound:
    """Monte-Carlo lower bound for the fixed-parameter sensitivity supremum."""

    value: float
    samples_used: int
    samples_degenerate: int


def sample_lower_bound(
    net: Network,
    params: OpfParams,
    gen: int,
    load_idx: int,
    box_low: np.ndarray,
    box_high: np.ndarray,
    samples: int = 100,
    seed: int = 0,
) -> SampledBound:
    """Sample loads uniformly from a box and take the best local sensitivity.

    This is explicitly a lower bound on the supremum over the load domain at
    fixed cost and limits; no exact algorithm for that supremum is offered.
    Samples whose binding count is irregular are skipped and counted. Each
    corner of the box must be a valid load (:func:`check_load`), and
    ``box_low`` at most ``box_high``: :class:`InvalidLoad` otherwise.
    ``samples`` must be a positive and ``seed`` a nonnegative integer:
    :class:`InvalidSampling` otherwise.
    """
    net.check_pair(gen, load_idx)
    try:
        samples, seed = strict_index(samples), strict_index(seed)
    except TypeError:
        raise InvalidSampling(f"samples {samples!r} and seed {seed!r} must be integers") from None
    if samples < 1 or seed < 0:
        raise InvalidSampling(f"need samples >= 1 and seed >= 0, got {samples} and {seed}")
    box_low, box_high = check_load(net, box_low), check_load(net, box_high)
    if np.any(box_low > box_high):
        raise InvalidLoad(f"box_low exceeds box_high at load {int(np.argmax(box_low > box_high))}")
    rng = np.random.default_rng(seed)
    best = 0.0
    used = degenerate = 0
    for _ in range(samples):
        load = rng.uniform(box_low, box_high)
        try:
            value = local_sensitivity(net, params, load, gen, load_idx)
        except (DegeneratePoint, DependentBindings):
            degenerate += 1
            continue
        used += 1
        best = max(best, value)
    return SampledBound(value=best, samples_used=used, samples_degenerate=degenerate)


def jacobian_finite_diff(
    net: Network,
    params: OpfParams,
    load: np.ndarray,
    step: float = 1e-4,
) -> np.ndarray:
    """Finite-difference Jacobian of the dispatch operator at ``load``.

    Perturbs one load at a time by ``+/- step`` and differences the optimal
    generation vectors; a load below ``step`` takes the forward difference,
    since loads cannot go negative. Every stencil point must sit in the same
    active-set region as the center; otherwise :class:`RegionBoundary` is
    raised, and a ``step`` that is not a finite positive real number is
    :class:`InvalidLoad` (a bool is not one), as is a load that
    :func:`check_load` refuses.
    """
    if isinstance(step, bool) or not (isinstance(step, numbers.Real) and 0.0 < step < np.inf):
        raise InvalidLoad(f"finite-difference step must be finite and positive, got {step!r}")
    load = check_load(net, load)
    center = solve_opf(net, params, load)
    center_set = extract_binding_set(center, net, params)

    jac = np.empty((net.n_gen, net.n_load))
    for j in range(net.n_load):
        probe = load.copy()
        probe[j] = load[j] + step
        hi = solve_opf(net, params, probe)
        lo, width = center, step
        if load[j] >= step:
            probe[j] = load[j] - step
            lo, width = solve_opf(net, params, probe), 2.0 * step
        for side, sol in (("+", hi), ("-", lo)):
            if extract_binding_set(sol, net, params) != center_set:
                raise RegionBoundary(
                    f"binding set changed at load {j} ({side}{step:g}); "
                    "the stencil straddles an active-set region boundary"
                )
        jac[:, j] = (hi.gen - lo.gen) / width
    return jac
