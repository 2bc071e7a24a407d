"""Benchmark of opfsens, run from the repository root:

    python3 bench/run.py --workload table-chain18 --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with one client. It times the
queries for ``--seconds``, checks every output apart from the package, and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, and the spans go to ``bench/out/``. README.md has the
details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh set-up processes measured per run, after one discarded warm-up
SETUP_PROBES = 7
CLI_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probes(chain: str) -> list[dict]:
    """Phase times of fresh processes brought to a ready model; ``setup_s``
    is the wall time from spawn to the probe's ready line."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), chain],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if k:
            samples.append({"setup_s": wall, **json.loads(line)})
    return samples


def cli_report() -> tuple[float, str]:
    """Median wall time of a fresh ``opfsens.cli report`` on case9, and its CSV."""
    walls = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "opfsens.cli", "report",
             "--case", str(SRC / "opfsens" / "data" / "case9.m"), "--format", "csv"],
            capture_output=True, text=True, env=child_env(), timeout=PROBE_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"cli report exited with {done.returncode}: {done.stderr}")
    return statistics.median(walls), done.stdout


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)
    kept: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0


def timed_loop(workload, seconds: float, tracer=None) -> list[Loop]:
    """Whole rounds of queries until ``seconds`` have passed. With a tracer,
    rounds alternate between untraced and traced, at least one of each, so
    the two loops returned see the same conditions and their difference is
    the tracing overhead."""
    loops = [Loop()] if tracer is None else [Loop(), Loop()]
    start = time.perf_counter()
    rounds = 0
    while rounds < len(loops) or time.perf_counter() - start < seconds:
        loop = loops[rounds % len(loops)]
        traced = tracer is not None and loop is loops[1]
        round_start = time.perf_counter()
        with tracer.instrument() if traced else contextlib.nullcontext():
            for query in workload.round():
                t0 = time.perf_counter()
                try:
                    with tracer.span("query") if traced else contextlib.nullcontext():
                        result = query()
                except Exception:
                    loop.failed += 1
                    traceback.print_exc()
                    result = None
                loop.times.append(time.perf_counter() - t0)
                if result is not None:
                    loop.kept.append(workload.keep(result))
        loop.wall += time.perf_counter() - round_start
        rounds += 1
    return loops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opfsens" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from checks import check_cli_report
    from spans import Tracer

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    probes = setup_probes(workload.chain)
    for query in workload.round()[:1]:
        query()  # warm-up, untimed

    if not args.trace:
        loops = timed_loop(workload, args.seconds)
        rss = peak_rss_mb()
        loop = loops[0]
        failures = workload.check(loop.kept)
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "query_s.p50": statistics.median(loop.times),
            "queries_per_s": (len(loop.times) - loop.failed) / loop.wall,
            "peak_rss_mb": rss,
        }
        declared = spec["end_to_end"]
    else:
        tracer = Tracer(layers.TARGETS)
        loops = plain, traced = timed_loop(workload, args.seconds, tracer)
        with tracer.instrument(), tracer.span("check"):
            failures = workload.check(plain.kept + traced.kept)
        cli_s, cli_csv = cli_report()
        failures += check_cli_report(cli_csv)
        overhead = 100.0 * (statistics.median(traced.times) / statistics.median(plain.times) - 1.0)
        values = layers.metrics(tracer, probes, cli_s, overhead)
        declared = spec["per_layer"]
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "probes": probes})

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(len(loop.times) for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
