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
from .dcopf import check_regularity, kkt_residuals, solve_opf
from .errors import OpfSensError
from .jacobian import BindingSet
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

#: above this many candidate sets the CLI notes the scan's rough duration and
#: suggests the bridge path
SCAN_WARN_CANDIDATES = 2_000_000


def _warn_if_large_scan(net: Network) -> None:
    n = candidate_count(net)
    if n > SCAN_WARN_CANDIDATES:
        # about 2 us per candidate: the direct scan of the bundled 27-bus
        # chain's 48.9M candidates took 97 s on a 2-vCPU x86 machine
        seconds = n * 2e-6
        eta = f"{seconds:.2g} s" if seconds < 100 else f"{seconds / 60:.0f} min"
        sys.stderr.write(
            f"note: exhaustive scan over {n} candidate sets, roughly {eta}; the "
            "decompose command is far cheaper when the network has bridges\n"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfsens",
        description="Worst-case sensitivities of DC optimal power flow solutions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, pair: bool = False, loads: bool = False,
                formats: tuple[str, ...] = ("table", "json")) -> argparse.ArgumentParser:
        """A subcommand with the flags it reads: every command reads a case,
        an optional chain and an output format."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--case", required=True, help="MATPOWER case file")
        p.add_argument("--chain", help="chain construction config (JSON)")
        p.add_argument("--format", choices=formats, default="table")
        if loads:
            p.add_argument("--loads", help="comma-separated per-unit load override, "
                                           "in internal load order (the report's "
                                           "column order)")
        if pair:
            p.add_argument("--pair", nargs=2, required=True, metavar=("GEN", "LOAD"),
                           help="generator and load bus ids")
        return p

    command("solve", "solve one dispatch LP", loads=True)
    command("sens-local", "local sensitivity at a point", pair=True, loads=True)
    command("sens-wcs", "worst-case pair sensitivity", pair=True)
    miso = command("sens-miso", "worst-case set sensitivity", pair=True)
    miso.add_argument("--load-set", help="comma-separated extra load bus ids joined "
                                         "with the --pair load")
    command("decompose", "pair worst case via bridges", pair=True)
    command("report", "full worst-case table", formats=("table", "csv", "json"))
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
    if getattr(args, "loads", None):
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


def _resolve(net: Network, token: str, copies: int, load: bool = False) -> int:
    """Internal generator index of a bus token, or with ``load`` its internal
    load index."""
    kind = "load" if load else "generator"
    for cand in _candidate_labels(token, copies - 1 if load else 0):
        try:
            i = net.index_of(cand)
        except KeyError:
            continue
        if (i >= net.n_gen) != load:
            raise ValueError(f"bus {token} is not a {kind}")
        return i - net.n_gen if load else i
    raise ValueError(f"unknown {kind} bus {token}")


def _resolve_pair(net: Network, args, copies: int) -> tuple[int, int]:
    """Internal generator and load indices of ``--pair``."""
    return _resolve(net, args.pair[0], copies), _resolve(net, args.pair[1], copies, load=True)


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


def _pair_entry(net: Network, gen: int, load: int | list[int], **fields) -> dict:
    """The document of a generator and a load index, or a list of them
    (``loads``), followed by ``fields``."""
    labels = net.vertex_order
    if isinstance(load, list):
        named = {"loads": [str(labels[net.n_gen + j]) for j in load]}
    else:
        named = {"load": str(labels[net.n_gen + load])}
    return {"gen": str(labels[gen]), **named, **fields}


def _binding_lines(entry: dict) -> str:
    return (f"binding generators: {entry['binding']['generators']}\n"
            f"binding branches:   {entry['binding']['branches']}\n")


def _render_table(net: Network, cwc: np.ndarray, fmt: str) -> str:
    """The worst-case table, aligned for reading or, with ``fmt`` "csv", as
    RFC-4180 CSV."""
    gl = [str(v) for v in net.vertex_order[: net.n_gen]]
    ll = [str(v) for v in net.vertex_order[net.n_gen :]]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["gen\\load"] + ll)
        writer.writerows([g] + [f"{v:.6f}" for v in row] for g, row in zip(gl, cwc))
        return buf.getvalue()
    width = max(8, max((len(s) for s in ll), default=0) + 2)
    lines = ["gen\\load".ljust(10) + "".join(s.rjust(width) for s in ll)]
    lines += [g.ljust(10) + "".join(f"{v:.4f}".rjust(width) for v in row)
              for g, row in zip(gl, cwc)]
    return "\n".join(lines) + "\n"


def _cmd_solve(args, net, params, loads, copies) -> tuple[dict, str]:
    sol = solve_opf(net, params, loads)
    kkt = kkt_residuals(sol, net, params, loads)
    reg = check_regularity(sol)
    doc = {
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
    text = (f"objective: {sol.objective:.6f}\n"
            + "".join(f"  gen {net.vertex_order[i]}: {sol.gen[i]:.6f}\n" for i in range(net.n_gen))
            + f"kkt max residual: {kkt.max_residual:.3e}  unique: {reg.unique}\n")
    return doc, text


def _cmd_report(args, net, params, loads, copies) -> tuple[dict, str]:
    _warn_if_large_scan(net)
    rep = worst_case_all(net)
    doc = {
        "pairs": [
            _pair_entry(net, i, j, cwc=float(rep.cwc[i, j]),
                        binding=_binding_doc(net, rep.argmax[i][j]))
            for i in range(net.n_gen) for j in range(net.n_load)
        ],
        "diagnostics": {
            "candidates_total": rep.candidates_total,
            "candidates_valid": rep.candidates_valid,
        },
    }
    return doc, _render_table(net, rep.cwc, args.format)


def _cmd_sens_wcs(args, net, params, loads, copies) -> tuple[dict, str]:
    gi, lj = _resolve_pair(net, args, copies)
    _warn_if_large_scan(net)
    value, bset = worst_case_siso(net, gi, lj)
    p = _pair_entry(net, gi, lj, cwc=value, binding=_binding_doc(net, bset))
    text = f"cwc({p['gen']} <- {p['load']}) = {value:.4f}\n" + _binding_lines(p)
    return {"pairs": [p], "diagnostics": {}}, text


def _cmd_sens_local(args, net, params, loads, copies) -> tuple[dict, str]:
    gi, lj = _resolve_pair(net, args, copies)
    value = local_sensitivity(net, params, loads, gi, lj)
    doc = {"pairs": [_pair_entry(net, gi, lj, local=value)], "diagnostics": {}}
    return doc, f"local |dgen/dload| = {value:.6f}\n"


def _cmd_sens_miso(args, net, params, loads, copies) -> tuple[dict, str]:
    gi, lj = _resolve_pair(net, args, copies)
    lset = {lj}
    if args.load_set:
        lset.update(_resolve(net, t.strip(), copies, load=True) for t in args.load_set.split(","))
    _warn_if_large_scan(net)
    value, bset = worst_case_miso(net, gi, sorted(lset))
    p = _pair_entry(net, gi, sorted(lset), cwc=value, binding=_binding_doc(net, bset))
    text = f"cwc({p['gen']} <- {{{','.join(p['loads'])}}}) = {value:.4f}\n" + _binding_lines(p)
    return {"pairs": [p], "diagnostics": {}}, text


def _cmd_decompose(args, net, params, loads, copies) -> tuple[dict, str]:
    gi, lj = _resolve_pair(net, args, copies)
    res = worst_case_decomposed(net, gi, lj, collect_ties=True)
    stages = [
        {
            "gen": str(sr.stage.gen_label),
            "load": str(sr.stage.load_label),
            "buses": sr.stage.network.n_bus,
            "factor": sr.factor,
            "binding": _binding_doc(sr.stage.network, sr.argmax),
            "ties": [_binding_doc(sr.stage.network, t) for t in sr.ties],
        }
        for sr in res.stages
    ]
    pair = _pair_entry(net, gi, lj)
    doc = {
        "pair": pair,
        "cwc": res.value,
        "stages": stages,
        "pruned": [
            {"bridge": [str(p.bridge[0]), str(p.bridge[1])],
             "replaced_by": p.kind, "buses_removed": len(p.replaced)}
            for p in res.decomposition.pruned
        ],
        "diagnostics": {},
    }
    text = f"cwc({pair['gen']} <- {pair['load']}) = {res.value:.4f}\n" + "".join(
        f"  stage {k}: {s['gen']} <- {s['load']} "
        f"({s['buses']} buses)  factor = {s['factor']:.4f}\n"
        for k, s in enumerate(stages)
    )
    return doc, text


#: each command returns its JSON document, less the "network" section that
#: main adds, and its text output
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
        doc, text = _COMMANDS[args.command](args, net, params, loads, copies)
    except OpfSensError as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    except (ValueError, OSError, KeyError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    if args.format == "json":
        text = json.dumps({"network": _network_doc(net), **doc}, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
