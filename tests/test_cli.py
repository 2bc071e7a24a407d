"""Command-line interface: outputs, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opfsens as ops
from opfsens import cli
from opfsens.cli import main

CASE = str(ops.bundled_case_path())
CHAIN = str(ops.bundled_chain_config_path())


#: what reading the bundled case logs: its quadratic cost terms are dropped
CASE9_WARNINGS = "".join(
    f"generator {g}: dropping nonlinear cost terms [{c}] (linear model only)\n"
    for g, c in enumerate(("0.11", "0.085", "0.1225")))


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one in-process run; stderr less the
    bundled case's warnings, which ``test_cli_prints_case_warnings_once``
    checks on their own."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err.removeprefix(CASE9_WARNINGS)


def test_report_csv_matches_published(capsys, table9):
    code, out, _ = run_cli(capsys, "report", "--case", CASE, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["gen\\load", "4", "5", "6", "7", "8", "9"]
    values = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    assert np.abs(values - table9).max() < 1e-3


def test_report_table_layout(capsys):
    code, out, _ = run_cli(capsys, "report", "--case", CASE)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["gen\\load", "4", "5", "6", "7", "8", "9"]
    assert len(lines) == 4


def test_sens_wcs_json(capsys):
    code, out, _ = run_cli(capsys, "sens-wcs", "--case", CASE,
                           "--pair", "3", "9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    pair = doc["pairs"][0]
    assert pair["gen"] == "3" and pair["load"] == "9"
    assert pair["cwc"] == pytest.approx(3.0081, abs=1e-3)
    assert pair["binding"]["generators"] or pair["binding"]["branches"]


def test_json_round_trips(capsys):
    _, out, _ = run_cli(capsys, "sens-wcs", "--case", CASE,
                        "--pair", "3", "9", "--format", "json")
    doc = json.loads(out)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


def test_decompose_chain(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--case", CASE, "--chain", CHAIN,
                           "--pair", "1", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == {"gen": "1", "load": "4''"}
    assert doc["cwc"] == pytest.approx(7.3155, abs=1e-3)
    assert len(doc["stages"]) == 3
    prod = np.prod([s["factor"] for s in doc["stages"]])
    assert prod == pytest.approx(doc["cwc"], rel=1e-12)


def test_decompose_explicit_primed_label(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--case", CASE, "--chain", CHAIN,
                           "--pair", "1", "4'", "--format", "json")
    assert code == 0
    assert json.loads(out)["pair"]["load"] == "4'"


def test_pair_at_copy_selector(capsys):
    """bus@copy names any copy explicitly; bare load ids mean the last copy."""
    code, out, _ = run_cli(capsys, "decompose", "--case", CASE, "--chain", CHAIN,
                           "--pair", "1@1", "4@0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == {"gen": "1'", "load": "4"}
    assert doc["cwc"] > 0


def test_negative_copy_exit_1(capsys):
    """A negative copy in a bus@copy token is a domain error with a JSON
    message, not a silent alias of copy 0."""
    code, out, err = run_cli(capsys, "decompose", "--case", CASE, "--chain", CHAIN,
                             "--pair", "1@-1", "7@-3", "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "InvalidTie"


def test_solve_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", CASE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    gen = doc["solution"]["generation"]
    assert sum(gen.values()) == pytest.approx(0.9 + 1.0 + 1.25, abs=1e-8)
    assert doc["diagnostics"]["kkt_max_residual"] < 1e-8


def test_solve_with_load_override(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", CASE, "--format", "json",
                           "--loads", "0.2,0.2,0.2,0.2,0.2,0.2")
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["solution"]["generation"].values()) == pytest.approx(1.2, abs=1e-8)


def test_sens_local(capsys):
    code, out, _ = run_cli(capsys, "sens-local", "--case", CASE,
                           "--pair", "3", "9", "--format", "json",
                           "--loads", "0.2,0.3,0.25,0.3,0.4,0.35")
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["pairs"][0]["local"] <= 3.0081 + 1e-6


def test_sens_miso(capsys):
    code, out, _ = run_cli(capsys, "sens-miso", "--case", CASE,
                           "--pair", "3", "9", "--load-set", "6",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"][0]["loads"] == ["6", "9"]
    assert doc["pairs"][0]["cwc"] == pytest.approx(3.1699647870, abs=1e-6)


def test_domain_error_exit_1(capsys):
    code, out, err = run_cli(capsys, "solve", "--case", CASE,
                             "--loads", "9,9,9,9,9,9")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "Infeasible"


@pytest.mark.parametrize("first", ["-1", "nan"])
def test_bad_load_exit_1(capsys, first):
    """A negative or non-finite load is a domain error, like a load vector
    of the wrong length, not a usage error."""
    code, out, err = run_cli(capsys, "solve", "--case", CASE,
                             f"--loads={first},0.2,0.2,0.2,0.2,0.2")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "InvalidLoad"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sens-wcs", "--case", CASE])  # missing --pair
    assert exc.value.code == 2


def test_unknown_bus_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sens-wcs", "--case", CASE, "--pair", "77", "9"])
    assert exc.value.code == 2


_CHAIN2 = ('{"copies": 2, "ties": [{"from": {"copy": 0, "bus": 7}, '
           '"to": {"copy": 1, "bus": 8}, "susceptance": 17.4, "flow_limit": 2.5}]}')


@pytest.mark.parametrize("old, new", [
    ('"bus": 7', '"bus": [7]'),
    ("17.4", '"x"'),
    ("17.4", "NaN"),
    ("17.4", "Infinity"),
    ("2.5", "NaN"),
    ('"copies": 2', '"copies": 2.7'),
    ('"copies": 2', '"copies": "two"'),
    ('"copy": 1', '"copy": 1.9'),
    ("}]}", "}]"),
])
def test_malformed_chain_config_exit_1(capsys, tmp_path, old, new):
    """A chain config with a malformed or non-finite value is a domain error
    with a JSON message: not a traceback, a usage error, or a truncated or
    NaN value carried into the results."""
    path = tmp_path / "chain.json"
    assert ops.load_chain_config(_write(path, _CHAIN2))[0] == 2
    code, out, err = run_cli(capsys, "report", "--case", CASE,
                             "--chain", _write(path, _CHAIN2.replace(old, new, 1)))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "InvalidTie"


def _write(path, text):
    path.write_text(text)
    return str(path)


_SELF_LOOP_TIE = '{"from": {"copy": 1, "bus": 5}, "to": {"copy": 1, "bus": 5}}'


@pytest.mark.parametrize("source", ["case", "chain"])
def test_self_loop_exit_1(capsys, tmp_path, source):
    """A branch or a chain tie from a bus to itself is a domain error with a
    JSON message, not a shunt to ground in a table that exits 0."""
    case, chain = CASE, []
    if source == "case":
        loop = "\t5\t5\t0\t0.085\t0\t250\t250\t250\t0\t0\t1\t-360\t360;\n"
        text = Path(CASE).read_text().replace("mpc.branch = [\n", "mpc.branch = [\n" + loop)
        case = _write(tmp_path / "loop.m", text)
    else:
        config = _CHAIN2.replace("}]}", "}, " + _SELF_LOOP_TIE + "]}")
        chain = ["--chain", _write(tmp_path / "chain.json", config)]
    code, out, err = run_cli(capsys, "report", "--case", case, *chain)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "SelfLoop"


# two generator buses and one line: a network with no load bus
_NO_LOAD_CASE = """function mpc = noload
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
	1	3	0	0	0	0	1	1	0	345	1	1.1	0.9;
	2	2	0	0	0	0	1	1	0	345	1	1.1	0.9;
];
mpc.gen = [
	1	0	0	300	-300	1	100	1	250	10	0	0	0	0	0	0	0	0	0	0	0;
	2	0	0	300	-300	1	100	1	300	10	0	0	0	0	0	0	0	0	0	0	0;
];
mpc.branch = [
	1	2	0	0.0576	0	250	250	250	0	0	1	-360	360;
];
mpc.gencost = [
	2	0	0	2	5	0;
	2	0	0	2	1.2	0;
];
"""


def test_report_table_without_loads(capsys, tmp_path):
    """A network with no load bus has an empty worst-case table: the table
    format prints its header and generator rows, as the CSV does."""
    case = _write(tmp_path / "noload.m", _NO_LOAD_CASE)
    rows = {}
    for fmt, sep in (("table", None), ("csv", ",")):
        code, out, err = run_cli(capsys, "report", "--case", case, "--format", fmt)
        assert (code, err) == (0, "")
        rows[fmt] = [line.split(sep) for line in out.splitlines()]
    assert rows["table"] == rows["csv"] == [["gen\\load"], ["1"], ["2"]]


def test_large_scan_note_gives_a_time(capsys, caplog, monkeypatch, chain27):
    """Above the threshold the note gives the scan's rough time at about
    1 us per walked candidate, in seconds and, from 100 s, in minutes, as a
    warning of the ``opfsens.cli`` logger. It counts the sets the scan
    walks: 63 of case9's 66, and 32,031,065 of the 27-bus chain's
    48,903,492, counted without scanning."""
    monkeypatch.setattr(cli, "SCAN_WARN_CANDIDATES", 10)
    code, _, err = run_cli(capsys, "report", "--case", CASE)
    assert code == 0
    assert "note: exhaustive scan over 63 candidate sets, roughly 6.3e-05 s;" in err
    monkeypatch.setattr(cli, "SCAN_WARN_CANDIDATES", 2_000_000)
    monkeypatch.setattr(cli, "worst_case_all", None)  # a scan would fail with a TypeError
    for net, count, eta in ((chain27[0], 32_031_065, "32 s"), (None, 10**9, "17 min")):
        if net is None:
            monkeypatch.setattr(cli, "live_candidate_count", lambda net: count)
        caplog.clear()
        cli._warn_if_large_scan(net)
        [record] = caplog.records
        assert (record.name, record.levelno) == ("opfsens.cli", logging.WARNING)
        assert f"over {count} candidate sets, roughly {eta};" in record.getMessage()


def _hub_case(spokes: int, parallel: int) -> str:
    """A MATPOWER case of ``spokes`` generators on one hub bus and
    ``parallel`` branches from the hub to a pendant load of 90 MW."""
    hub, pendant = spokes + 1, spokes + 2
    spoke_ids = range(1, spokes + 1)

    def table(name, rows):
        lines = ("\t" + "\t".join(map(str, row)) + ";" for row in rows)
        return f"mpc.{name} = [\n" + "\n".join(lines) + "\n];\n"

    bus = [(b, 3 if b == 1 else 2 if b <= spokes else 1, 90 if b == pendant else 0,
            0, 0, 0, 1, 1, 0, 345, 1, 1.1, 0.9) for b in range(1, pendant + 1)]
    gen = [(g, 0, 0, 300, -300, 1, 100, 1, 250, 10) + (0,) * 11 for g in spoke_ids]
    line = (0, 250, 250, 250, 0, 0, 1, -360, 360)
    branch = [(g, hub, 0, 1 / (1 + g), *line) for g in spoke_ids]
    branch += [(hub, pendant, 0, 0.5, *line)] * parallel
    gencost = [(2, 0, 0, 2, g, 0) for g in spoke_ids]
    return ("function mpc = hub\nmpc.version = '2';\nmpc.baseMVA = 100;\n"
            + table("bus", bus) + table("gen", gen) + table("branch", branch)
            + table("gencost", gencost))


def test_hub_report_has_no_large_scan_note(capsys, tmp_path):
    """Eleven generators on a hub with 300 parallel branches to a pendant
    load: C(322, 10), about 2.87e18, cardinality-feasible sets, but the scan
    walks 11,264, so ``report`` prints no note and completes its table."""
    case = _write(tmp_path / "hub.m", _hub_case(11, 300))
    code, out, err = run_cli(capsys, "report", "--case", case, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["pairs"]) == 22


def test_missing_case_file_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--case", "/nonexistent/case.m"])
    assert exc.value.code == 2


# the arguments each subcommand needs; the optional flags, including the
# removed tolerance flags; and the ones each subcommand reads
_BASE = {
    "solve": [],
    "sens-local": ["--pair", "3", "9"],
    "sens-wcs": ["--pair", "3", "9"],
    "sens-miso": ["--pair", "3", "9"],
    "decompose": ["--pair", "3", "9"],
    "report": [],
}
_FLAGS = {
    "--loads": ["--loads", "0.2,0.3,0.25,0.3,0.4,0.35"],
    "--format csv": ["--format", "csv"],
    "--pair": ["--pair", "3", "9"],
    "--load-set": ["--load-set", "6"],
    "--binding-tol": ["--binding-tol", "1e-7"],
    "--rank-tol": ["--rank-tol", "1e-10"],
    "--solver-tol": ["--solver-tol", "1e-9"],
}
_READS = {
    "solve": {"--loads"},
    "sens-local": {"--loads", "--pair"},
    "sens-wcs": {"--pair"},
    "sens-miso": {"--pair", "--load-set"},
    "decompose": {"--pair"},
    "report": {"--format csv"},
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in _BASE for flag in _FLAGS if flag not in _READS[command]
])
def test_unread_flags_are_usage_errors(capsys, command, flag):
    """Each subcommand accepts only the flags it reads; any other is an
    argparse usage error, not silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--case", CASE, *_BASE[command], *_FLAGS[flag]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _python(code):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(ops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_loads_only_declared_dependencies():
    """pyproject.toml declares numpy alone: importing the package and its
    CLI in a fresh process loads none of the test extras' modules."""
    code = (
        "import sys\n"
        "import opfsens, opfsens.cli\n"
        "extras = {'scipy', 'networkx', 'hypothesis', 'pytest'}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in extras)\n"
        "assert not loaded, loaded\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_library_logs_to_no_handler_by_default():
    """A library caller that configures no logging gets nothing on stderr:
    the package's logger has a NullHandler, so Python's last-resort handler
    stays quiet; a configured root handler still receives the warnings."""
    read = f"import opfsens as ops; ops.build_network(ops.read_case({CASE!r}))"
    assert _python(read).stderr == ""
    configured = _python(f"import logging; logging.basicConfig(format='%(name)s %(message)s'); {read}")
    assert configured.stderr == "".join(
        f"opfsens.network {line}\n" for line in CASE9_WARNINGS.splitlines())


def _only_null_handler():
    return [type(h) for h in logging.getLogger("opfsens").handlers] == [logging.NullHandler]


def test_cli_prints_case_warnings_once(capsys):
    """The CLI prints the package's warnings on stderr as bare messages,
    byte for byte what Python printed with no handler configured, through
    one handler per call however often main runs in a process."""
    proc = _python(f"from opfsens import cli; cli.main(['report', '--case', {CASE!r}])")
    assert proc.returncode == 0 and proc.stderr == CASE9_WARNINGS
    for _ in range(2):
        assert main(["report", "--case", CASE]) == 0
        assert capsys.readouterr().err == CASE9_WARNINGS
    assert _only_null_handler()


@pytest.mark.parametrize("argv, code", [
    (["report", "--case", CASE], 0),
    (["report", "--case", CASE, "--chain", "/nonexistent/chain.json"], 2),
    (["report"], 2),
    (["sens-wcs", "--case", CASE, "--pair", "4", "9"], 2),
    (["solve", "--case", CASE, "--loads", "0.2,0.3"], 1),
], ids=["report", "missing-chain", "missing-case-flag", "not-a-generator", "short-loads"])
def test_cli_handler_leaves_with_the_call(capsys, argv, code):
    """The stderr handler lives for one command, whatever its exit: after
    main returns or exits, a library call prints nothing on stderr and the
    package's logger holds only its NullHandler."""
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
    capsys.readouterr()
    assert _only_null_handler()
    ops.build_network(ops.read_case(CASE))
    assert capsys.readouterr().err == ""


def test_report_loads_no_scipy():
    """The package runs on numpy alone: a fresh process that imports it and
    prints the case9 report has no scipy module loaded."""
    code = (
        "import contextlib, io, sys\n"
        "import opfsens\n"
        "from opfsens import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['report', '--case', {CASE!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
