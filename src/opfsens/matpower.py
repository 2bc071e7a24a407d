"""Parser for the MATPOWER case-file subset used by this package.

Reads ``mpc.baseMVA`` and the ``bus``, ``gen``, ``branch`` and ``gencost``
tables written as MATLAB matrix literals (``name = [ rows ];`` with rows
separated by ``;`` or newlines, ``%`` comments). Rows are kept verbatim as
numeric lists so extra columns survive positionally; typed accessors pull out
the columns this package needs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import DanglingReference, MalformedMatrix, MissingTable

# column positions in the standard MATPOWER format
_BUS_I, _BUS_TYPE, _BUS_PD = 0, 1, 2
_GEN_BUS, _GEN_PMAX, _GEN_PMIN = 0, 8, 9
_BR_FROM, _BR_TO, _BR_X, _BR_RATE_A = 0, 1, 3, 5
_COST_MODEL, _COST_NCOEF = 0, 3

# the fixed columns this package reads from each table: every row needs them,
# holding finite numbers
_READ_COLUMNS = {
    "bus": (_BUS_I, _BUS_PD),
    "gen": (_GEN_BUS, _GEN_PMAX, _GEN_PMIN),
    "branch": (_BR_FROM, _BR_TO, _BR_X, _BR_RATE_A),
    "gencost": (_COST_MODEL, _COST_NCOEF),
}
REQUIRED_TABLES = tuple(_READ_COLUMNS)


@dataclass(frozen=True)
class MatpowerCase:
    """Raw numeric tables of one case, plus typed column accessors."""

    base_mva: float
    bus: list[list[float]] = field(repr=False)
    gen: list[list[float]] = field(repr=False)
    branch: list[list[float]] = field(repr=False)
    gencost: list[list[float]] = field(repr=False)

    @property
    def n_bus(self) -> int:
        return len(self.bus)

    @property
    def n_gen(self) -> int:
        return len(self.gen)

    @property
    def n_branch(self) -> int:
        return len(self.branch)

    @property
    def bus_ids(self) -> list[int]:
        return [int(row[_BUS_I]) for row in self.bus]

    def bus_demand_mw(self, bus_id: int) -> float:
        for row in self.bus:
            if int(row[_BUS_I]) == bus_id:
                return float(row[_BUS_PD])
        raise DanglingReference(f"unknown bus id {bus_id}")

    @property
    def gen_buses(self) -> list[int]:
        return [int(row[_GEN_BUS]) for row in self.gen]

    def gen_limits_mw(self, g: int) -> tuple[float, float]:
        """(p_min, p_max) of generator ``g`` in declaration order, in MW."""
        row = self.gen[g]
        return float(row[_GEN_PMIN]), float(row[_GEN_PMAX])

    @property
    def branch_endpoints(self) -> list[tuple[int, int]]:
        return [(int(r[_BR_FROM]), int(r[_BR_TO])) for r in self.branch]

    def branch_reactance(self, e: int) -> float:
        return float(self.branch[e][_BR_X])

    def branch_rate_a_mva(self, e: int) -> float:
        return float(self.branch[e][_BR_RATE_A])

    def cost_coefficients(self, g: int) -> list[float]:
        """Polynomial cost coefficients of generator ``g``, highest degree first.

        Only the polynomial cost model (MATPOWER model 2) is supported.
        """
        row = self.gencost[g]
        model = int(row[_COST_MODEL])
        if model != 2:
            raise MalformedMatrix(
                f"generator {g}: unsupported cost model {model} (only polynomial model 2)"
            )
        n = int(row[_COST_NCOEF])
        coeffs = row[4 : 4 + n]
        if len(coeffs) != n:
            raise MalformedMatrix(f"generator {g}: gencost row shorter than n={n}")
        if not all(map(math.isfinite, coeffs)):
            raise MalformedMatrix(f"generator {g}: non-finite cost coefficient in {coeffs}")
        return [float(c) for c in coeffs]


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("%", 1)[0] for line in text.splitlines())


def _parse_matrix(name: str, body: str) -> list[list[float]]:
    rows: list[list[float]] = []
    for chunk in re.split(r"[;\n]", body):
        cells = chunk.split()
        if not cells:
            continue
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise MalformedMatrix(f"table '{name}': non-numeric cell in row {chunk!r}") from exc
    if not rows:
        raise MalformedMatrix(f"table '{name}' is empty")
    width = len(rows[0])
    read = _READ_COLUMNS[name]
    if width <= max(read):
        raise MalformedMatrix(
            f"table '{name}' has {width} columns, expected at least {max(read) + 1}"
        )
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MalformedMatrix(
                f"table '{name}': row {i} has {len(row)} cells, expected {width}"
            )
        if not all(math.isfinite(row[c]) for c in read):
            raise MalformedMatrix(f"table '{name}': row {i} has a non-finite cell")
    return rows


def parse_matpower(text: str) -> MatpowerCase:
    """Parse MATPOWER case text into a :class:`MatpowerCase`.

    Raises
    ------
    MalformedMatrix
        Unbalanced brackets, non-numeric cells, ragged rows, too few columns,
        a non-finite cell in a column this package reads, bad baseMVA.
    MissingTable
        A required table (or baseMVA) is absent.
    DanglingReference
        A generator or branch refers to an undeclared bus id.
    """
    text = _strip_comments(text)

    m = re.search(r"\bbaseMVA\s*=\s*([^;\[\]]+);", text)
    if m is None:
        raise MissingTable("baseMVA assignment not found")
    try:
        base_mva = float(m.group(1).strip())
    except ValueError as exc:
        raise MalformedMatrix(f"baseMVA is not numeric: {m.group(1).strip()!r}") from exc
    if not 0 < base_mva < math.inf:
        raise MalformedMatrix(f"baseMVA must be positive and finite, got {base_mva}")

    tables: dict[str, list[list[float]]] = {}
    for name in REQUIRED_TABLES:
        m = re.search(rf"\b{name}\s*=\s*\[", text)
        if m is None:
            raise MissingTable(f"table '{name}' not found")
        start = m.end()
        end = text.find("]", start)
        if end < 0:
            raise MalformedMatrix(f"table '{name}': missing closing bracket")
        if "[" in text[start:end]:
            raise MalformedMatrix(f"table '{name}': nested bracket")
        tables[name] = _parse_matrix(name, text[start:end])

    case = MatpowerCase(
        base_mva=base_mva,
        bus=tables["bus"],
        gen=tables["gen"],
        branch=tables["branch"],
        gencost=tables["gencost"],
    )

    known = set(case.bus_ids)
    if len(known) != case.n_bus:
        raise MalformedMatrix("duplicate bus ids in bus table")
    for g, b in enumerate(case.gen_buses):
        if b not in known:
            raise DanglingReference(f"generator {g} refers to unknown bus {b}")
    for e, (u, v) in enumerate(case.branch_endpoints):
        if u not in known or v not in known:
            raise DanglingReference(f"branch {e} endpoint ({u},{v}) refers to unknown bus")
    if len(case.gencost) < case.n_gen:
        raise MissingTable(
            f"gencost has {len(case.gencost)} rows for {case.n_gen} generators"
        )
    return case


def read_case(path) -> MatpowerCase:
    """Parse a case file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matpower(fh.read())
