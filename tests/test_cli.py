"""Command-line interface: outputs, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
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


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_large_scan_note_gives_a_time(capsys, monkeypatch):
    """Above the threshold the note gives the scan's rough time at about
    2 us per candidate, in seconds and, from 100 s, in minutes."""
    monkeypatch.setattr(cli, "SCAN_WARN_CANDIDATES", 10)
    code, _, err = run_cli(capsys, "report", "--case", CASE)
    assert code == 0
    assert "note: exhaustive scan over 66 candidate sets, roughly 0.00013 s;" in err
    for count, eta in ((48_903_492, "98 s"), (10**9, "33 min")):
        monkeypatch.setattr(cli, "candidate_count", lambda net: count)
        cli._warn_if_large_scan(None)
        assert f"over {count} candidate sets, roughly {eta};" in capsys.readouterr().err


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
    src = str(Path(ops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
