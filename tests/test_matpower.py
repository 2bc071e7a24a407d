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
