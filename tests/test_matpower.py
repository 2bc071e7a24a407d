"""Parser tests: table extraction, error paths, positional column handling."""

from __future__ import annotations

import json
import random
import re

import pytest

import opfsens as ops
from opfsens.cli import main
from opfsens.errors import (
    DanglingReference,
    DisconnectedGraph,
    InvalidLimits,
    MalformedMatrix,
    MissingTable,
    OpfSensError,
)

MINI_CASE = """\
function mpc = mini
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0 0 0 1 1 0 345 1 1.1 0.9;
    2 1 50 0 0 0 1 1 0 345 1 1.1 0.9;
];
mpc.gen = [
    1 10 0 300 -300 1.0 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
    1 2 0 0.1 0 100 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 2 1.5 0;
];
"""


def test_case9_counts(case9):
    assert case9.n_bus == 9
    assert case9.n_branch == 9
    assert case9.n_gen == 3
    assert case9.base_mva == 100.0
    assert case9.gen_buses == [1, 2, 3]


def test_mini_case_columns():
    case = ops.parse_matpower(MINI_CASE)
    assert case.bus_demand_mw(2) == 50.0
    with pytest.raises(DanglingReference, match="unknown bus id 99"):
        case.bus_demand_mw(99)
    assert case.branch_reactance(0) == 0.1
    assert case.branch_rate_a_mva(0) == 100.0
    assert case.gen_limits_mw(0) == (0.0, 200.0)
    assert case.cost_coefficients(0) == [1.5, 0.0]


def test_comments_and_separators():
    text = MINI_CASE.replace(
        "    1 2 0 0.1 0 100 0 0 0 0 1 -360 360;",
        "    1 2 0 0.1 0 100 0 0 0 0 1 -360 360  % trailing comment",
    )
    case = ops.parse_matpower(text)
    assert case.n_branch == 1


def test_dangling_branch_reference():
    text = MINI_CASE.replace("1 2 0 0.1", "1 99 0 0.1")
    with pytest.raises(DanglingReference):
        ops.parse_matpower(text)


def test_dangling_generator_reference():
    text = MINI_CASE.replace(
        "1 10 0 300 -300 1.0 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;",
        "7 10 0 300 -300 1.0 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;",
    )
    with pytest.raises(DanglingReference):
        ops.parse_matpower(text)


def test_missing_table():
    text = MINI_CASE.replace("mpc.gencost", "mpc.gencost_oops")
    with pytest.raises(MissingTable):
        ops.parse_matpower(text)


def test_missing_base_mva():
    text = MINI_CASE.replace("mpc.baseMVA = 100;", "")
    with pytest.raises(MissingTable):
        ops.parse_matpower(text)


def test_unbalanced_bracket():
    text = MINI_CASE.replace("mpc.gencost = [\n    2 0 0 2 1.5 0;\n];", "mpc.gencost = [\n  2 0 0 2 1.5 0;")
    with pytest.raises(MalformedMatrix):
        ops.parse_matpower(text)


def test_non_numeric_cell():
    text = MINI_CASE.replace("2 1 50", "2 1 fifty")
    with pytest.raises(MalformedMatrix):
        ops.parse_matpower(text)


def test_ragged_rows_rejected():
    text = MINI_CASE.replace("    2 1 50 0 0 0 1 1 0 345 1 1.1 0.9;",
                             "    2 1 50 0 0;")
    with pytest.raises(MalformedMatrix):
        ops.parse_matpower(text)


def test_extra_columns_ignored(case9_text):
    # widen every branch row with an unknown trailing column
    lines = []
    for line in case9_text.splitlines():
        if line.strip().endswith("360;") and "\t" in line:
            line = line.replace("360;", "360 7;")
        lines.append(line)
    case = ops.parse_matpower("\n".join(lines))
    assert case.n_branch == 9
    assert case.branch_reactance(0) == 0.0576


def test_deleted_branch_disconnects(case9_text):
    """Dropping the generator-1 spur leaves a parseable case whose graph is
    disconnected; verified against an independent adjacency DFS."""
    text = case9_text.replace("	1	4	0	0.0576	0	250	250	250	0	0	1	-360	360;\n", "")
    case = ops.parse_matpower(text)
    assert case.n_branch == 8

    # independent DFS oracle over raw case rows
    adj = {b: set() for b in case.bus_ids}
    for u, v in case.branch_endpoints:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    stack = [case.bus_ids[0]]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(adj[u] - seen)
    assert len(seen) < case.n_bus  # bus 1 stranded from the rest

    with pytest.raises(DisconnectedGraph):
        ops.build_network(case)


def test_parse_deterministic(case9_text):
    a = ops.parse_matpower(case9_text)
    b = ops.parse_matpower(case9_text)
    assert a.bus == b.bus and a.gen == b.gen and a.branch == b.branch
    assert a.gencost == b.gencost and a.base_mva == b.base_mva


def _cut_rows(text: str, table: str, cells: int) -> str:
    """Keep only the first ``cells`` cells of every row of one table."""
    head, _, rest = text.partition(f"mpc.{table} = [")
    body, _, tail = rest.partition("]")
    rows = [" ".join(row.split()[:cells]) for row in body.split(";")]
    return f"{head}mpc.{table} = [{';'.join(rows)}]{tail}"


@pytest.mark.parametrize("table, cells", [("gen", 5), ("branch", 4)])
def test_short_rows_exit_1(case9_text, tmp_path, capsys, table, cells):
    """Rows too short for the columns the package reads are a malformed
    table, reported as a JSON error with exit 1, not a traceback."""
    path = tmp_path / "short.m"
    path.write_text(_cut_rows(case9_text, table, cells))
    assert main(["report", "--case", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "MalformedMatrix"
    assert f"table '{table}' has {cells} columns" in err["message"]


@pytest.mark.parametrize("cells, bad", [
    ("1 2 0 0.1 0 100", "1 2 0 nan 0 100"),  # branch reactance
    ("2 1 50", "inf 1 50"),                  # bus id
    ("2 0 0 2 1.5 0", "2 0 0 2 nan 0"),      # cost coefficient
])
def test_non_finite_cell_rejected(cells, bad):
    with pytest.raises(MalformedMatrix):
        ops.build_network(ops.parse_matpower(MINI_CASE.replace(cells, bad)))


@pytest.mark.parametrize("table, cells, bad", [
    ("bus", "\t5\t1\t90\t", "\t5.5\t1\t90\t"),
    ("gen", "\t3\t85\t", "\t3.5\t85\t"),
    ("branch", "\t4\t5\t0.017", "\t4\t5.5\t0.017"),
])
def test_fractional_bus_id_exit_1(case9_text, tmp_path, capsys, table, cells, bad):
    """A bus id that is not an integer is a malformed table, not truncated."""
    assert case9_text.count(cells) == 1
    path = tmp_path / "fractional.m"
    path.write_text(case9_text.replace(cells, bad))
    assert main(["report", "--case", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "MalformedMatrix"
    assert f"table '{table}'" in err["message"]


@pytest.mark.parametrize("table, cells, bad, row", [
    ("bus", "\t5\t1\t90\t", "\t5\t4\t90\t", 4),
    ("gen", "\t3\t85\t-10.95\t300\t-300\t1.025\t100\t1\t",
     "\t3\t85\t-10.95\t300\t-300\t1.025\t100\t0\t", 2),
    ("branch", "\t9\t4\t0.01\t0.085\t0.592\t250\t250\t250\t0\t0\t1\t",
     "\t9\t4\t0.01\t0.085\t0.592\t250\t250\t250\t0\t0\t0\t", 8),
])
def test_out_of_service_row_exit_1(case9_text, tmp_path, capsys, table, cells, bad, row):
    """A generator or branch with status 0, or an isolated bus (type 4), is
    a malformed table naming the row, not modelled as in service."""
    assert case9_text.count(cells) == 1
    path = tmp_path / "outage.m"
    path.write_text(case9_text.replace(cells, bad))
    assert main(["report", "--case", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "MalformedMatrix"
    assert f"table '{table}': row {row} is out of service" in err["message"]


def test_generator_bus_demand_exit_1(case9_text, tmp_path, capsys):
    """Demand at a generator bus is a malformed table naming the bus, not
    dropped without a word: the network models only the load buses'
    demand, so `solve` would print the stock dispatch."""
    cells = "\t2\t2\t0\t0\t"
    assert case9_text.count(cells) == 1
    text = case9_text.replace(cells, "\t2\t2\t80\t0\t")
    message = "table 'bus': row 1 puts 80 MW of demand on generator bus 2, which is not modelled"
    with pytest.raises(MalformedMatrix, match=f"^{re.escape(message)}$"):
        ops.parse_matpower(text)
    path = tmp_path / "gen_demand.m"
    path.write_text(text)
    assert main(["solve", "--case", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == {"type": "MalformedMatrix", "message": message}


#: case9's branch 4-5, row 1 of the branch table, with TAP and SHIFT 0
BRANCH_4_5 = "\t4\t5\t0.017\t0.092\t0.158\t250\t250\t250\t0\t0\t1"


def _branch_4_5(text: str, x: str = "0.092", tap: str = "0", shift: str = "0") -> str:
    assert text.count(BRANCH_4_5) == 1
    return text.replace(BRANCH_4_5, f"\t4\t5\t0.017\t{x}\t0.158\t250\t250\t250\t{tap}\t{shift}\t1")


def _solve_json(tmp_path, capsys, name: str, text: str) -> str:
    path = tmp_path / f"{name}.m"
    path.write_text(text)
    assert main(["solve", "--case", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out


def test_tap_ratio_divides_susceptance(case9_text, tmp_path, capsys):
    """A branch's susceptance is ``1/x`` divided by its tap ratio, as in
    MATPOWER's DC model, where TAP 0 means 1: TAP 0.5 on branch 4-5
    dispatches exactly as its reactance halved, and not as the stock case."""
    case = ops.parse_matpower(_branch_4_5(case9_text, tap="0.5"))
    assert [case.branch_tap_ratio(e) for e in range(3)] == [1.0, 0.5, 1.0]
    net, _ = ops.build_network(case)
    assert net.edge_label(1) == (4, 5) and net.edges[1][2] == 1.0 / 0.092 / 0.5
    tapped = _solve_json(tmp_path, capsys, "tap", _branch_4_5(case9_text, tap="0.5"))
    halved = _solve_json(tmp_path, capsys, "halved", _branch_4_5(case9_text, x="0.046"))
    assert tapped == halved != _solve_json(tmp_path, capsys, "stock", case9_text)
    # a row too short to hold TAP has tap ratio 1
    short = ops.parse_matpower(_cut_rows(case9_text, "branch", 8))
    assert [short.branch_tap_ratio(e) for e in range(9)] == [1.0] * 9


@pytest.mark.parametrize("old, new, message", [
    (BRANCH_4_5, _branch_4_5(BRANCH_4_5, shift="10"),
     "table 'branch': row 1 has phase shift SHIFT 10, which is not modelled"),
    ("\t5\t1\t90\t30\t0\t0\t", "\t5\t1\t90\t30\t40\t0\t",
     "table 'bus': row 4 has shunt conductance GS 40, which is not modelled"),
    (BRANCH_4_5, _branch_4_5(BRANCH_4_5, tap="-0.5"),
     "table 'branch': row 1 has tap ratio -0.5, expected a finite nonnegative number (0 means 1)"),
], ids=["shift", "gs", "negative-tap"])
def test_unmodelled_columns_exit_1(case9_text, tmp_path, capsys, old, new, message):
    """A phase shift or a shunt conductance would change the DC model, which
    has no term for either, and a negative tap ratio makes no branch: each is
    a malformed table naming its row, not ignored."""
    assert case9_text.count(old) == 1
    text = case9_text.replace(old, new)
    with pytest.raises(MalformedMatrix, match=f"^{re.escape(message)}$"):
        ops.parse_matpower(text)
    path = tmp_path / "unmodelled.m"
    path.write_text(text)
    assert main(["solve", "--case", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == {"type": "MalformedMatrix", "message": message}


#: case9's gencost rows, whose removal leaves the table empty
GENCOST_ROWS = "\t2\t1500\t0\t3\t0.11\t5\t150;\n\t2\t2000\t0\t3\t0.085\t1.2\t600;\n" \
    "\t2\t3000\t0\t3\t0.1225\t1\t335;\n"


@pytest.mark.parametrize("old, new, error, message", [
    ("\t2\t1500\t0\t3\t", "\t1\t1500\t0\t3\t", "MalformedMatrix",
     "generator 0: unsupported cost model 1 (only polynomial model 2)"),
    ("\t2\t1500\t0\t3\t", "\t2\t1500\t0\t4\t", "MalformedMatrix",
     "generator 0: gencost row shorter than n=4"),
    (GENCOST_ROWS, "", "MalformedMatrix", "table 'gencost' is empty"),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = abc;", "MalformedMatrix", "baseMVA is not numeric: 'abc'"),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = 0;", "MalformedMatrix",
     "baseMVA must be positive and finite, got 0.0"),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = -100;", "MalformedMatrix",
     "baseMVA must be positive and finite, got -100.0"),
    ("\t5\t1\t90\t", "\t4\t1\t90\t", "MalformedMatrix", "duplicate bus ids in bus table"),
    ("\t0.11\t5\t150;", "\t0.11\t-5\t150;", "InvalidLimits", "costs must be nonnegative"),
    ("\t1\t4\t0\t0.0576\t0\t250\t", "\t1\t4\t0\t0.0576\t0\t-250\t", "InvalidLimits",
     "flow lower limit exceeds upper limit"),
], ids=["cost-model-1", "short-gencost-row", "empty-table", "non-numeric-base", "zero-base",
        "negative-base", "duplicate-bus", "negative-cost", "negative-rate"])
def test_case_errors_exit_1(case9_text, tmp_path, capsys, old, new, error, message):
    """Each case file a user can write that the model does not accept is a
    domain error: the CLI exits 1 with its JSON error and prints nothing on
    stdout."""
    assert case9_text.count(old) == 1
    path = tmp_path / "case.m"
    path.write_text(case9_text.replace(old, new))
    assert main(["solve", "--case", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1])["error"] == {"type": error, "message": message}


def test_branch_rows_without_status_are_in_service(case9_text):
    net, _ = ops.build_network(ops.parse_matpower(_cut_rows(case9_text, "branch", 10)))
    assert net.n_edge == 9


def test_inverted_limits_are_domain_errors():
    case = ops.parse_matpower(MINI_CASE.replace("200 0 0 0", "-5 0 0 0"))
    with pytest.raises(InvalidLimits):
        ops.build_network(case)


def _mutate(rng: random.Random, text: str) -> str:
    """Delete, replace or repeat one to three cells, or delete a line."""
    cells = ["0", "-1", "0.5", "1e9", "1e400", "nan", "inf", "-inf", "x", ";", "[", "]", "%"]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            lines = text.splitlines()
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
            continue
        tokens = list(re.finditer(r"\S+", text))
        t = rng.choice(tokens)
        new = rng.choice(["", rng.choice(cells), f"{t.group()} {t.group()}"])
        text = text[: t.start()] + new + text[t.end() :]
    return text


def test_mutated_case_raises_only_domain_errors(case9_text):
    """Seeded mutants of case9 either parse and build or raise an
    OpfSensError; no other exception escapes to the caller."""
    rng = random.Random(20201)
    for _ in range(500):
        text = _mutate(rng, case9_text)
        try:
            ops.build_network(ops.parse_matpower(text))
        except OpfSensError:
            pass
