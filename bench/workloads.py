"""The benchmark's workloads: model, seeded inputs, one query, output checks.

Every workload is a closed loop with one client: the next query starts when
the previous one returns. ``round()`` gives the thunks of one whole round of
queries; a run repeats whole rounds until its time is up, so the mix of
queries is the same in every run. Queries call the package through module
attributes (``sensitivity.worst_case_all``), which is where the traced run
puts its timing wrappers.

Inputs come from ``numpy.random.default_rng([seed, 0])`` and check samples
from ``default_rng([seed, 1])``, so a seed gives the same inputs in traced and
untraced runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import opfsens
from opfsens import dcopf, decompose, jacobian, sensitivity
from opfsens.errors import DegeneratePoint, OpfSensError

import checks

#: cost and load draws that keep the chains feasible (per-unit)
COST_RANGE = (0.5, 5.0)
LOAD_RANGE = (0.1, 0.5)
#: operating points per round of dispatch-chain27
DISPATCH_ROUND = 32
#: extra seeded samples drawn by the checks
CHECK_POINTS = 8
CHECK_PAIRS = 6
CHECK_STAGES = 8
CHECK_SETS = 2000


def case9():
    return opfsens.build_network(opfsens.read_case(opfsens.bundled_case_path()))


def chain18():
    """Two case9 copies joined by the tie 7 -> 4'."""
    return opfsens.build_chain(*case9(), 2, [opfsens.TieLine(0, 7, 1, 4)])


def chain27():
    """The bundled three-copy chain of the published 27-bus example."""
    copies, ties = opfsens.load_chain_config(opfsens.bundled_chain_config_path())
    return opfsens.build_chain(*case9(), copies, ties)


@dataclass(frozen=True)
class Point:
    """One analysed operating point; ``bset`` and ``jac`` are None when the
    point is degenerate."""

    params: opfsens.OpfParams
    load: np.ndarray
    sol: dcopf.OpfSolution
    kkt_max: float
    bset: jacobian.BindingSet | None
    jac: np.ndarray | None


def analyse_point(net, params, load) -> Point:
    """Solve one dispatch and read its local sensitivities. A degenerate
    vertex is an answer of the method, not a failure."""
    sol = dcopf.solve_opf(net, params, load)
    kkt = dcopf.kkt_residuals(sol, net, params, load)
    dcopf.check_regularity(sol)
    try:
        bset = dcopf.extract_binding_set(sol, net, params)
    except DegeneratePoint:
        return Point(params, load, sol, kkt.max_residual, None, None)
    jac = jacobian.jacobian_from_binding(net, bset).jac
    return Point(params, load, sol, kkt.max_residual, bset, jac)


def draw_points(net, params, rng, count: int) -> list[tuple[opfsens.OpfParams, np.ndarray]]:
    draws = []
    for _ in range(count):
        cost = rng.uniform(*COST_RANGE, net.n_gen)
        load = rng.uniform(*LOAD_RANGE, net.n_load)
        draws.append((opfsens.OpfParams(cost, params.gen_upper, params.gen_lower,
                                        params.flow_upper, params.flow_lower), load))
    return draws


def check_random_points(net, params, rng, worst: dict) -> list[str]:
    """Seeded operating points on the workload's chain: each must pass the
    dispatch checks and stay below the worst cases found."""
    failures = []
    points = []
    for k, (p, load) in enumerate(draw_points(net, params, rng, CHECK_POINTS)):
        try:
            points.append(analyse_point(net, p, load))
        except OpfSensError as exc:
            failures.append(f"check point {k}: {type(exc).__name__}: {exc}")
    oracle = checks.DispatchOracle(net, dcopf.BINDING_TOL)
    return failures + checks.check_points(oracle, points, worst)


def check_stages(pair, res, direct: bool) -> list[str]:
    """A decomposed result: product of factors, factors at least 1, each
    factor equal to numpy's value on its stage's argmax set and, with
    ``direct``, to the stage's exhaustive table."""
    failures = []
    if not checks.close(res.value, float(np.prod(res.factors)), 1e-12):
        failures.append(f"pair {pair}: value {res.value} is not the product of {res.factors}")
    for s in res.stages:
        st = s.stage
        if s.factor < 1.0 - checks.VALUE_TOL:
            failures.append(f"pair {pair}: stage factor {s.factor} below 1")
        own = checks.abs_sensitivity(st.network, s.argmax.gens, s.argmax.branches,
                                     st.gen_index, st.load_index)
        if not checks.close(s.factor, own):
            failures.append(f"pair {pair}: stage factor {s.factor} vs numpy {own}")
        if direct:
            table = sensitivity.worst_case_all(st.network).cwc[st.gen_index, st.load_index]
            if not checks.close(s.factor, float(table)):
                failures.append(f"pair {pair}: stage factor {s.factor} vs direct scan {table}")
    return failures


class TableChain18:
    """``worst_case_all`` on the 18-bus chain: the exhaustive scan alone.
    The network is fixed; the seed draws the check samples."""

    chain = "chain18"

    def __init__(self, seed: int):
        self.net, self.params = chain18()
        self.check_rng = np.random.default_rng([seed, 1])

    def round(self):
        return [lambda: sensitivity.worst_case_all(self.net)]

    def keep(self, report):
        return report

    def check(self, reports) -> list[str]:
        net, rep = self.net, reports[0]
        failures = []
        for other in reports[1:]:
            if not (np.array_equal(other.cwc, rep.cwc) and other.argmax == rep.argmax
                    and other.candidates_valid == rep.candidates_valid):
                failures.append("repeated queries gave different reports")
                break
        total = checks.candidate_total(net.n_gen, net.n_edge)
        if rep.candidates_total != total:
            failures.append(f"candidates_total {rep.candidates_total}, expected {total}")
        if rep.cwc.min() < 1.0 - checks.VALUE_TOL:
            failures.append(f"worst case {rep.cwc.min()} below 1")

        pairs = list(itertools.product(range(net.n_gen), range(net.n_load)))
        own = checks.sensitivities(net, checks.stacks(
            net, [(rep.argmax[i][j].gens, rep.argmax[i][j].branches) for i, j in pairs]))
        for k, (i, j) in enumerate(pairs):
            if not checks.close(float(own[k, i, j]), float(rep.cwc[i, j])):
                failures.append(f"cwc[{i},{j}] {rep.cwc[i, j]} vs numpy {own[k, i, j]}")
        for bset in sorted({rep.argmax[i][j] for i, j in pairs}):
            try:
                jacobian.jacobian_from_binding(net, bset)
            except OpfSensError as exc:
                failures.append(f"argmax {bset} rejected: {type(exc).__name__}: {exc}")

        # a seeded sample of candidate sets: none that numpy finds well
        # conditioned may beat the table
        cands = [(g, b) for k in range(net.n_gen)
                 for g in itertools.combinations(range(net.n_gen), k)
                 for b in itertools.combinations(range(net.n_edge), net.n_gen - 1 - k)]
        sample = [cands[k] for k in self.check_rng.choice(len(cands), CHECK_SETS, replace=False)]
        stack = checks.stacks(net, sample)
        good = np.linalg.cond(stack) < checks.WELL_CONDITIONED
        excess = (checks.sensitivities(net, stack[good]) - rep.cwc).max()
        if excess > checks.VALUE_TOL:
            failures.append(f"a well-conditioned candidate beats the table by {excess:.3e}")

        # decomposition across the tie equals the direct scan
        for k in self.check_rng.choice(len(pairs), CHECK_PAIRS, replace=False):
            i, j = pairs[k]
            res = decompose.worst_case_decomposed(net, i, j, collect_ties=True)
            if not checks.close(res.value, float(rep.cwc[i, j])):
                failures.append(f"pair ({i},{j}): decomposed {res.value} vs direct {rep.cwc[i, j]}")

        worst = {p: float(rep.cwc[p]) for p in pairs}
        return failures + check_random_points(net, self.params, self.check_rng, worst)


class PairsChain27:
    """``worst_case_decomposed(collect_ties=True)`` over every generator-load
    pair of the 27-bus chain; one round is one pass over all pairs in a seeded
    order."""

    chain = "chain27"

    def __init__(self, seed: int):
        self.net, self.params = chain27()
        self.pairs = list(itertools.product(range(self.net.n_gen), range(self.net.n_load)))
        self.input_rng = np.random.default_rng([seed, 0])
        self.check_rng = np.random.default_rng([seed, 1])
        self._seen: set = set()

    def _query(self, pair):
        return pair, decompose.worst_case_decomposed(self.net, *pair, collect_ties=True)

    def round(self):
        return [lambda p=self.pairs[k]: self._query(p)
                for k in self.input_rng.permutation(len(self.pairs))]

    def keep(self, result):
        """The first result of a pair in full, later ones by value."""
        pair, res = result
        if pair in self._seen:
            return pair, res.value, res.factors
        self._seen.add(pair)
        return pair, res

    def check(self, kept) -> list[str]:
        net = self.net
        full = {r[0]: r[1] for r in kept if len(r) == 2}
        failures = []
        if set(full) != set(self.pairs):
            return [f"{len(full)} of {len(self.pairs)} pairs answered"]
        for pair, value, factors in (r for r in kept if len(r) == 3):
            if value != full[pair].value or factors != full[pair].factors:
                failures.append(f"pair {pair}: repeated query gave {value}, first {full[pair].value}")
        for i in range(checks.TABLE_27BUS.shape[0]):
            for j, bus in enumerate(range(4, 10)):
                got = full[(i, net.index_of(f"{bus}''") - net.n_gen)].value
                if abs(got - checks.TABLE_27BUS[i, j]) > checks.PUBLISHED_TOL:
                    failures.append(f"published entry ({i + 1}, {bus}''): {got} vs {checks.TABLE_27BUS[i, j]}")
        for pair in self.pairs:
            failures += check_stages(pair, full[pair], direct=False)
        for k in self.check_rng.choice(len(self.pairs), CHECK_STAGES, replace=False):
            failures += check_stages(self.pairs[k], full[self.pairs[k]], direct=True)
        worst = {pair: res.value for pair, res in full.items()}
        return failures + check_random_points(net, self.params, self.check_rng, worst)


class DispatchChain27:
    """Seeded cost and load draws on the 27-bus chain, one operating point
    per query: the LP layer, no scan. A round is DISPATCH_ROUND draws."""

    chain = "chain27"

    def __init__(self, seed: int):
        self.net, self.params = chain27()
        self.input_rng = np.random.default_rng([seed, 0])
        self.check_rng = np.random.default_rng([seed, 1])

    def round(self):
        return [lambda p=p, load=load: analyse_point(self.net, p, load)
                for p, load in draw_points(self.net, self.params, self.input_rng, DISPATCH_ROUND)]

    def keep(self, point):
        return point

    def check(self, points) -> list[str]:
        net = self.net
        failures = []
        worst = {}
        for k in self.check_rng.choice(net.n_gen * net.n_load, CHECK_PAIRS, replace=False):
            pair = divmod(int(k), net.n_load)
            res = decompose.worst_case_decomposed(net, *pair, collect_ties=True)
            failures += check_stages(pair, res, direct=True)
            worst[pair] = res.value
        oracle = checks.DispatchOracle(net, dcopf.BINDING_TOL)
        return failures + checks.check_points(oracle, points, worst)


WORKLOADS = {
    "table-chain18": TableChain18,
    "pairs-chain27": PairsChain27,
    "dispatch-chain27": DispatchChain27,
}
