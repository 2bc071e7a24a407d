"""Per-layer metrics of the traced run.

The layers are the package's modules. The traced run wraps the public
functions below where their callers look them up, so a call made inside the
package (``dcopf.solve_opf`` calling ``simplex.solve_lp``) is timed as well.
Counts are read off results at the same boundaries.

Each workload's queries and its output checks call disjoint sets of these
functions, so every timing is fed by one kind of call only. The mapping is
in README.md.
"""

from __future__ import annotations

import statistics

from opfsens import dcopf, decompose, jacobian, linalg, sensitivity

import checks


def _stage_counts(res) -> dict:
    nets = [s.stage.network for s in res.stages]
    return {
        "stages": len(nets),
        "stage_buses": sum(n.n_bus for n in nets),
        "stage_candidates": sum(checks.candidate_total(n.n_gen, n.n_edge) for n in nets),
    }


TARGETS = [
    (sensitivity, "worst_case_all",
     lambda r: {"candidates": r.candidates_total, "valid": r.candidates_valid}),
    (decompose, "worst_case_decomposed", _stage_counts),
    (decompose, "chain_partition", None),
    (decompose, "tied_argmax_sets", None),
    (decompose, "assemble_network", None),
    (dcopf, "solve_opf", None),
    (dcopf, "kkt_residuals", lambda r: {"kkt_max_residual": r.max_residual}),
    (dcopf, "check_regularity", None),
    (dcopf, "extract_binding_set", None),
    (dcopf, "solve_lp", None),
    (jacobian, "jacobian_from_binding", None),
    (jacobian, "independence_check", None),
    (linalg, "numerical_rank", None),
    (linalg, "lu_factor_checked", None),
    (linalg, "lu_solve_factored", None),
    (linalg, "rcond_estimate", None),
]

#: layers whose self time the run reports, as a share of query time
SELF_LAYERS = ("network", "linalg", "simplex", "dcopf", "jacobian", "sensitivity", "decompose")

#: functions whose mean seconds per call the run reports
TIMED = (
    "sensitivity.worst_case_all",
    "sensitivity.tied_argmax_sets",
    "decompose.chain_partition",
    "dcopf.solve_opf",
    "dcopf.kkt_residuals",
    "dcopf.check_regularity",
    "dcopf.extract_binding_set",
    "jacobian.jacobian_from_binding",
)


def _duration(s) -> float:
    return s["end"] - s["start"]


def _total(spans, key: str) -> float:
    return sum(s["counts"][key] for s in spans)


def metrics(tracer, probes: list[dict], cli_s: float, overhead_pct: float) -> dict[str, float]:
    out = {
        "opfsens.import_s": statistics.median(p["import_s"] for p in probes),
        "matpower.read_case_s": statistics.median(p["read_case_s"] for p in probes),
        "network.build_s": statistics.median(p["build_s"] for p in probes),
        "cli.report_case9_s": cli_s,
    }
    for name in TIMED:
        spans = tracer.named(name)
        out[f"{name}_s"] = statistics.fmean(map(_duration, spans)) if spans else 0.0

    scans = tracer.named("sensitivity.worst_case_all")
    cands = _total(scans, "candidates")
    out["sensitivity.candidates"] = cands / len(scans) if scans else 0.0
    out["sensitivity.candidates_valid"] = _total(scans, "valid") / len(scans) if scans else 0.0
    out["sensitivity.valid_ratio"] = _total(scans, "valid") / cands if cands else 0.0
    out["sensitivity.us_per_candidate"] = 1e6 * sum(map(_duration, scans)) / cands if cands else 0.0

    decs = tracer.named("decompose.worst_case_decomposed")
    stages = _total(decs, "stages")
    stage_cands = _total(decs, "stage_candidates")
    out["decompose.stages"] = stages / len(decs) if decs else 0.0
    out["decompose.stage_buses"] = _total(decs, "stage_buses") / stages if stages else 0.0
    out["sensitivity.stage_candidates"] = stage_cands / len(decs) if decs else 0.0
    ties = tracer.named("sensitivity.tied_argmax_sets")
    out["sensitivity.us_per_stage_candidate"] = (
        1e6 * sum(map(_duration, ties)) / stage_cands if stage_cands else 0.0)

    extracts = tracer.named("dcopf.extract_binding_set")
    out["dcopf.points"] = len(tracer.named("dcopf.solve_opf"))
    out["dcopf.regular_points"] = sum("error" not in s for s in extracts)
    out["dcopf.degenerate_points"] = sum(s.get("error") == "DegeneratePoint" for s in extracts)
    out["dcopf.kkt_max_residual"] = max(
        (s["counts"]["kkt_max_residual"] for s in tracer.named("dcopf.kkt_residuals")), default=0.0)

    self_s = tracer.self_seconds("query")
    query_s = sum(map(_duration, tracer.named("query")))
    for layer in SELF_LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * self_s.get(layer, 0.0) / query_s
    out["trace.overhead_pct"] = overhead_pct
    return out
