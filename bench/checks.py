"""Output checks made apart from the package: numpy and scipy re-computations
and properties every correct answer has. Each check returns a list of
failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Published worst-case tables, generator x load. 9-bus: generators 1..3
# against loads 4..9. 27-bus chain: generators 1..3 of the first copy against
# loads 4''..9'' of the last copy.
TABLE_9BUS = np.array([
    [1.0000, 1.3935, 2.0650, 2.4748, 1.9389, 1.3244],
    [2.4236, 2.9560, 1.7024, 1.4748, 1.0000, 2.0081],
    [2.5162, 1.9838, 1.0000, 1.3847, 1.6595, 3.0081],
])
TABLE_27BUS = np.array([
    [7.3155, 10.1942, 15.1069, 18.1045, 14.1843, 9.6889],
    [4.3595, 6.0750, 9.0026, 10.7889, 8.4528, 5.7739],
    [4.0933, 5.7040, 8.4528, 10.1301, 7.9366, 5.4213],
])
PUBLISHED_TOL = 1e-3

#: agreement demanded between two evaluations of one sensitivity
VALUE_TOL = 1e-9
KKT_TOL = 1e-8
#: a stack numpy finds better conditioned than this must be a valid set
WELL_CONDITIONED = 1e8


def candidate_total(n_gen: int, n_edge: int) -> int:
    """Sets of n_gen - 1 members: k generators and n_gen - 1 - k branches."""
    return sum(
        math.comb(n_gen, k) * math.comb(n_edge, n_gen - 1 - k)
        for k in range(n_gen)
        if n_gen - 1 - k <= n_edge
    )


def stacks(net, sets) -> np.ndarray:
    """Constraint stacks of ``(gens, branches)`` sets, all of one size, from
    the network's Laplacian and flow matrix: load rows, binding generator
    rows, binding branch rows, reference-angle row."""
    n = net.n_bus
    e1 = np.zeros((1, n))
    e1[0, 0] = 1.0
    return np.array([
        np.vstack([net.laplacian[net.n_gen:], net.laplacian[list(g)],
                   net.flow_matrix[list(b)], e1])
        for g, b in sets
    ])


def sensitivities(net, stack: np.ndarray) -> np.ndarray:
    """|d gen / d load| for one stack or a batch of them, by numpy.linalg.solve."""
    rhs = np.broadcast_to(np.eye(net.n_bus)[:, : net.n_load], stack.shape[:-1] + (net.n_load,))
    return np.abs(net.laplacian[: net.n_gen] @ np.linalg.solve(stack, rhs))


def abs_sensitivity(net, gens, branches, gen: int, load: int) -> float:
    return float(sensitivities(net, stacks(net, [(gens, branches)])[0])[gen, load])


def close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class DispatchOracle:
    """The dispatch LP posed apart from the package: angles free, generator
    limits as bounds, flow limits as inequality rows; incidence, flow matrix
    and Laplacian rebuilt from the network's edge list."""

    def __init__(self, net, binding_tol: float):
        n, m = net.n_bus, net.n_edge
        incidence = np.zeros((n, m))
        susceptance = np.zeros(m)
        for e, (u, v, b) in enumerate(net.edges):
            incidence[u, e], incidence[v, e], susceptance[e] = 1.0, -1.0, b
        self.net = net
        self.flow = susceptance[:, None] * incidence.T
        self.laplacian = incidence @ self.flow
        self.binding_tol = binding_tol

    def objective(self, params, load) -> float:
        from scipy.optimize import linprog

        net, g, n = self.net, self.net.n_gen, self.net.n_bus
        a_eq = np.zeros((n + 1, g + n))
        a_eq[:n, :g] = -np.eye(n, g)
        a_eq[:n, g:] = self.laplacian
        a_eq[n, g] = 1.0
        zero = np.zeros((net.n_edge, g))
        res = linprog(
            np.concatenate([params.cost, np.zeros(n)]),
            A_ub=np.vstack([np.hstack([zero, self.flow]), np.hstack([zero, -self.flow])]),
            b_ub=np.concatenate([params.flow_upper, -params.flow_lower]),
            A_eq=a_eq,
            b_eq=np.concatenate([np.zeros(g), -load, [0.0]]),
            bounds=list(zip(params.gen_lower, params.gen_upper)) + [(None, None)] * n,
            method="highs",
        )
        if res.status != 0:
            raise ArithmeticError(f"HiGHS: {res.message}")
        return float(res.fun)

    def binding(self, params, gen, theta) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Generators and branches within the binding tolerance of a limit."""
        tol = self.binding_tol
        flows = self.flow @ theta
        gens = np.flatnonzero((np.abs(gen - params.gen_upper) <= tol)
                              | (np.abs(gen - params.gen_lower) <= tol))
        branches = np.flatnonzero((np.abs(flows - params.flow_upper) <= tol)
                                  | (np.abs(flows - params.flow_lower) <= tol))
        return tuple(int(i) for i in gens), tuple(int(e) for e in branches)


def check_points(oracle: DispatchOracle, points, worst: dict) -> list[str]:
    """Check analysed operating points; ``worst`` maps (gen, load) to a worst
    case that no local sensitivity may exceed."""
    net = oracle.net
    failures = []
    for k, p in enumerate(points):
        try:
            ref = oracle.objective(p.params, p.load)
        except ArithmeticError as exc:
            failures.append(f"point {k}: {exc}")
            continue
        if not close(p.sol.objective, ref):
            failures.append(f"point {k}: objective {p.sol.objective!r} vs HiGHS {ref!r}")
        if not p.kkt_max <= KKT_TOL:
            failures.append(f"point {k}: KKT residual {p.kkt_max:.3e}")
        gens, branches = oracle.binding(p.params, p.sol.gen, p.sol.theta)
        if p.jac is None:
            if len(gens) + len(branches) == net.n_gen - 1:
                failures.append(f"point {k}: reported degenerate with {net.n_gen - 1} binding")
            continue
        if (gens, branches) != (p.bset.gens, p.bset.branches):
            failures.append(f"point {k}: binding set {p.bset} vs {gens}, {branches}")
        if np.abs(p.jac.sum(axis=0) - 1.0).max() > KKT_TOL:
            failures.append(f"point {k}: Jacobian column sums differ from 1")
        if gens and np.abs(p.jac[list(gens)]).max() > VALUE_TOL:
            failures.append(f"point {k}: binding generator rows are not 0")
        for (i, j), bound in worst.items():
            if abs(p.jac[i, j]) > bound + VALUE_TOL:
                failures.append(f"point {k}: |J[{i},{j}]| {abs(p.jac[i, j])} above worst case {bound}")
    return failures


def check_cli_report(text: str) -> list[str]:
    """The CSV of ``report`` on case9 against the published 9-bus table."""
    rows = list(csv.reader(io.StringIO(text)))
    try:
        table = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    except ValueError as exc:
        return [f"cli report: {exc}"]
    if table.shape != TABLE_9BUS.shape or np.abs(table - TABLE_9BUS).max() > PUBLISHED_TOL:
        return ["cli report: table differs from the published 9-bus table"]
    return []
