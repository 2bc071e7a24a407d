"""Command-line front end.

Subcommands::

    solve       solve one dispatch LP and print the operating point
    sens-local  local sensitivity |dgen_i/dload_j| at a solved point
    sens-wcs    worst-case sensitivity of one generator-load pair
    sens-miso   worst-case sensitivity of one generator to a load set
    decompose   worst case of one pair via bridge decomposition
    report      worst-case table for every generator-load pair

Buses are named by their original MATPOWER ids. With ``--chain``, copies are
distinguished by prime marks (``4'``, ``4''``); a bare id names the first
copy for generators and the last copy for loads, so ``--pair 1 4`` on a
3-copy chain means generator 1 against load ``4''``. Any copy can be named
explicitly as ``bus@copy`` (``4@0`` is the first copy's bus 4).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .dcopf import (
    BINDING_TOL,
    check_regularity,
    kkt_residuals,
    solve_opf,
)
from .errors import OpfSensError
from .jacobian import BindingSet
from .linalg import RANK_REL_TOL
from .matpower import read_case
from .network import Network, build_chain, build_network, copy_label, load_chain_config, nominal_loads
from .decompose import worst_case_decomposed
from .sensitivity import (
    candidate_count,
    local_sensitivity,
    worst_case_all,
    worst_case_miso,
    worst_case_siso,
)
from .simplex import PIVOT_TOL

# above this, an exhaustive scan is minutes-to-hours; suggest the bridge path
SCAN_WARN_CANDIDATES = 2_000_000


def _warn_if_large_scan(net: Network) -> None:
    n = candidate_count(net)
    if n > SCAN_WARN_CANDIDATES:
        sys.stderr.write(
            f"note: exhaustive scan over {n} candidate sets; the decompose "
            "command is far cheaper when the network has bridges\n"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfsens",
        description="Worst-case sensitivities of DC optimal power flow solutions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, pair: bool = False) -> None:
        p.add_argument("--case", required=True, help="MATPOWER case file")
        p.add_argument("--chain", help="chain construction config (JSON)")
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--binding-tol", type=float, default=BINDING_TOL,
                       help=f"binding-constraint tolerance, per-unit (default {BINDING_TOL:g})")
        p.add_argument("--rank-tol", type=float, default=RANK_REL_TOL,
                       help=f"independence / rank tolerance (default {RANK_REL_TOL:g})")
        p.add_argument("--solver-tol", type=float, default=PIVOT_TOL,
                       help=f"LP pivot tolerance (default {PIVOT_TOL:g})")
        p.add_argument("--loads", help="comma-separated per-unit load override, "
                                       "in internal load order (the report's "
                                       "column order)")
        if pair:
            p.add_argument("--pair", nargs=2, required=True, metavar=("GEN", "LOAD"),
                           help="generator and load bus ids")

    common(sub.add_parser("solve", help="solve one dispatch LP"))
    common(sub.add_parser("sens-local", help="local sensitivity at a point"), pair=True)
    common(sub.add_parser("sens-wcs", help="worst-case pair sensitivity"), pair=True)
    miso = sub.add_parser("sens-miso", help="worst-case set sensitivity")
    common(miso, pair=True)
    miso.add_argument("--load-set", help="comma-separated extra load bus ids joined "
                                         "with the --pair load")
    common(sub.add_parser("decompose", help="pair worst case via bridges"), pair=True)
    common(sub.add_parser("report", help="full worst-case table"))
    return parser


def _load_model(args):
    case = read_case(args.case)
    net, params = build_network(case)
    copies = 1
    if args.chain:
        copies, ties = load_chain_config(args.chain)
        base_loads = nominal_loads(case, net)
        net, params = build_chain(net, params, copies, ties)
        loads = np.tile(base_loads, copies)
    else:
        loads = nominal_loads(case, net)
    if args.loads:
        loads = np.array([float(t) for t in args.loads.split(",")])
    return net, params, loads, copies


def _as_label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _candidate_labels(token: str, default_copy: int) -> list:
    """Labels a pair token may refer to.

    A ``bus@copy`` token names one copy explicitly. A bare token is tried
    verbatim (base networks, primed chain labels) and then in the command's
    default copy (first copy for generators, last for loads).
    """
    if "@" in token:
        bus, _, copy = token.rpartition("@")
        return [copy_label(_as_label(bus), int(copy))]
    label = _as_label(token)
    return [label, copy_label(label, default_copy)]


def _resolve_gen(net: Network, token: str, copies: int) -> int:
    for cand in _candidate_labels(token, 0):
        try:
            i = net.index_of(cand)
        except KeyError:
            continue
        if i >= net.n_gen:
            raise ValueError(f"bus {token} is not a generator")
        return i
    raise ValueError(f"unknown generator bus {token}")


def _resolve_load(net: Network, token: str, copies: int) -> int:
    for cand in _candidate_labels(token, copies - 1):
        try:
            i = net.index_of(cand)
        except KeyError:
            continue
        if i < net.n_gen:
            raise ValueError(f"bus {token} is not a load")
        return i - net.n_gen
    raise ValueError(f"unknown load bus {token}")


def _network_doc(net: Network) -> dict:
    return {
        "counts": {
            "buses": net.n_bus,
            "generators": net.n_gen,
            "loads": net.n_load,
            "branches": net.n_edge,
        },
        "bus_map": {
            "generators": [str(v) for v in net.vertex_order[: net.n_gen]],
            "loads": [str(v) for v in net.vertex_order[net.n_gen :]],
        },
    }


def _binding_doc(net: Network, bset: BindingSet) -> dict:
    d = bset.describe(net)
    return {
        "generators": [str(g) for g in d["generators"]],
        "branches": [[str(u), str(v)] for u, v in d["branches"]],
    }


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_table(net: Network, cwc: np.ndarray) -> None:
    gl = [str(v) for v in net.vertex_order[: net.n_gen]]
    ll = [str(v) for v in net.vertex_order[net.n_gen :]]
    width = max(8, max(len(s) for s in ll) + 2)
    head = "gen\\load".ljust(10) + "".join(s.rjust(width) for s in ll)
    print(head)
    for i, g in enumerate(gl):
        print(g.ljust(10) + "".join(f"{cwc[i, j]:.4f}".rjust(width) for j in range(len(ll))))


def _emit_csv(net: Network, cwc: np.ndarray) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    ll = [str(v) for v in net.vertex_order[net.n_gen :]]
    writer.writerow(["gen\\load"] + ll)
    for i in range(net.n_gen):
        writer.writerow([str(net.vertex_order[i])] + [f"{v:.6f}" for v in cwc[i]])
    sys.stdout.write(buf.getvalue())


def _cmd_solve(args, net, params, loads, copies) -> None:
    sol = solve_opf(net, params, loads, binding_tol=args.binding_tol,
                    solver_tol=args.solver_tol)
    kkt = kkt_residuals(sol, net, params, loads)
    reg = check_regularity(sol)
    doc = {
        "network": _network_doc(net),
        "solution": {
            "objective": sol.objective,
            "generation": {str(net.vertex_order[i]): sol.gen[i] for i in range(net.n_gen)},
            "flows": {f"{u}-{v}": float(f) for (u, v), f
                      in zip((net.edge_label(e) for e in range(net.n_edge)), sol.flows)},
        },
        "diagnostics": {
            "kkt_max_residual": kkt.max_residual,
            "nonzero_inequality_duals": reg.nonzero_inequality_duals,
            "unique": reg.unique,
        },
    }
    if args.format == "json":
        _emit_json(doc)
        return
    print(f"objective: {sol.objective:.6f}")
    for i in range(net.n_gen):
        print(f"  gen {net.vertex_order[i]}: {sol.gen[i]:.6f}")
    print(f"kkt max residual: {kkt.max_residual:.3e}  unique: {reg.unique}")


def _cmd_report(args, net, params, loads, copies) -> None:
    _warn_if_large_scan(net)
    rep = worst_case_all(net, rank_tol=args.rank_tol)
    if args.format == "json":
        pairs = []
        for i in range(net.n_gen):
            for j in range(net.n_load):
                pairs.append({
                    "gen": str(net.vertex_order[i]),
                    "load": str(net.vertex_order[net.n_gen + j]),
                    "cwc": float(rep.cwc[i, j]),
                    "binding": _binding_doc(net, rep.argmax[i][j]),
                })
        _emit_json({
            "network": _network_doc(net),
            "pairs": pairs,
            "diagnostics": {
                "candidates_total": rep.candidates_total,
                "candidates_valid": rep.candidates_valid,
            },
        })
    elif args.format == "csv":
        _emit_csv(net, rep.cwc)
    else:
        _emit_table(net, rep.cwc)


def _cmd_sens_wcs(args, net, params, loads, copies) -> None:
    gi = _resolve_gen(net, args.pair[0], copies)
    lj = _resolve_load(net, args.pair[1], copies)
    _warn_if_large_scan(net)
    value, bset = worst_case_siso(net, gi, lj, rank_tol=args.rank_tol)
    doc = {
        "network": _network_doc(net),
        "pairs": [{
            "gen": str(net.vertex_order[gi]),
            "load": str(net.vertex_order[net.n_gen + lj]),
            "cwc": value,
            "binding": _binding_doc(net, bset),
        }],
        "diagnostics": {},
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        p = doc["pairs"][0]
        print(f"cwc({p['gen']} <- {p['load']}) = {value:.4f}")
        print(f"binding generators: {p['binding']['generators']}")
        print(f"binding branches:   {p['binding']['branches']}")


def _cmd_sens_local(args, net, params, loads, copies) -> None:
    gi = _resolve_gen(net, args.pair[0], copies)
    lj = _resolve_load(net, args.pair[1], copies)
    value = local_sensitivity(net, params, loads, gi, lj,
                              binding_tol=args.binding_tol)
    doc = {
        "network": _network_doc(net),
        "pairs": [{
            "gen": str(net.vertex_order[gi]),
            "load": str(net.vertex_order[net.n_gen + lj]),
            "local": value,
        }],
        "diagnostics": {},
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"local |dgen/dload| = {value:.6f}")


def _cmd_sens_miso(args, net, params, loads, copies) -> None:
    gi = _resolve_gen(net, args.pair[0], copies)
    lset = {_resolve_load(net, args.pair[1], copies)}
    if args.load_set:
        lset.update(_resolve_load(net, t.strip(), copies) for t in args.load_set.split(","))
    _warn_if_large_scan(net)
    value, bset = worst_case_miso(net, gi, sorted(lset), rank_tol=args.rank_tol)
    doc = {
        "network": _network_doc(net),
        "pairs": [{
            "gen": str(net.vertex_order[gi]),
            "loads": [str(net.vertex_order[net.n_gen + j]) for j in sorted(lset)],
            "cwc": value,
            "binding": _binding_doc(net, bset),
        }],
        "diagnostics": {},
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        p = doc["pairs"][0]
        print(f"cwc({p['gen']} <- {{{','.join(p['loads'])}}}) = {value:.4f}")
        print(f"binding generators: {p['binding']['generators']}")
        print(f"binding branches:   {p['binding']['branches']}")


def _cmd_decompose(args, net, params, loads, copies) -> None:
    gi = _resolve_gen(net, args.pair[0], copies)
    lj = _resolve_load(net, args.pair[1], copies)
    res = worst_case_decomposed(net, gi, lj, collect_ties=True, rank_tol=args.rank_tol)
    stages = []
    for sr in res.stages:
        stages.append({
            "gen": str(sr.stage.gen_label),
            "load": str(sr.stage.load_label),
            "buses": sr.stage.network.n_bus,
            "factor": sr.factor,
            "binding": _binding_doc(sr.stage.network, sr.argmax),
            "ties": [_binding_doc(sr.stage.network, t) for t in sr.ties],
        })
    doc = {
        "network": _network_doc(net),
        "pair": {
            "gen": str(net.vertex_order[gi]),
            "load": str(net.vertex_order[net.n_gen + lj]),
        },
        "cwc": res.value,
        "stages": stages,
        "pruned": [
            {"bridge": [str(p.bridge[0]), str(p.bridge[1])],
             "replaced_by": p.kind, "buses_removed": len(p.replaced)}
            for p in res.decomposition.pruned
        ],
        "diagnostics": {},
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"cwc({doc['pair']['gen']} <- {doc['pair']['load']}) = {res.value:.4f}")
        for k, s in enumerate(stages):
            print(f"  stage {k}: {s['gen']} <- {s['load']} "
                  f"({s['buses']} buses)  factor = {s['factor']:.4f}")


_COMMANDS = {
    "solve": _cmd_solve,
    "report": _cmd_report,
    "sens-wcs": _cmd_sens_wcs,
    "sens-local": _cmd_sens_local,
    "sens-miso": _cmd_sens_miso,
    "decompose": _cmd_decompose,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        net, params, loads, copies = _load_model(args)
        _COMMANDS[args.command](args, net, params, loads, copies)
    except OpfSensError as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    except (ValueError, OSError, KeyError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
