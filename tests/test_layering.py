"""The package's layering, checked on its source: no module imports inside a
function or takes a private name from another, the graph,
linear-algebra, Jacobian, scan and decomposition layers never import the LP
(``dcopf``, ``simplex``), only the graph layer's one walk reads the
adjacency, and only it and the reduced block read the PTDF basis."""

from __future__ import annotations

import ast
from pathlib import Path

import opfsens

SRC = Path(opfsens.__file__).resolve().parent

#: modules below the LP, and the LP modules they may not import
BELOW_LP = ("network", "linalg", "jacobian", "sensitivity", "decompose")
LP = {"dcopf", "simplex"}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _imported(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The dotted-name parts an import statement reaches."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return {part for name in names for part in name.split(".")}


def test_no_import_inside_a_function():
    nested = [
        f"{module}.{func.name}"
        for module, tree in _trees().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_lower_layers_never_import_the_lp():
    trees = _trees()
    reached = {
        module: sorted(LP & set().union(*(
            _imported(node) for node in ast.walk(trees[module])
            if isinstance(node, (ast.Import, ast.ImportFrom)))))
        for module in BELOW_LP
    }
    assert reached == {module: [] for module in BELOW_LP}


def test_no_private_name_crosses_a_module():
    """No module imports a single-underscore name from another package
    module; dunders such as ``__version__`` are public."""
    crossing = [
        f"{module}: {node.module}.{alias.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("opfsens"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert crossing == []


def _readers(attr: str) -> set[str]:
    """Where the package reads the attribute ``attr``: each reader as
    ``module.function``, the top-level function or class it sits in, or
    ``module`` at module level."""
    readers = set()
    for module, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == attr) or (
                        isinstance(node, ast.Constant) and node.value == attr):
                    name = getattr(top, "name", None)
                    readers.add(f"{module}.{name}" if name else module)
    return readers


def test_ptdf_basis_is_read_beside_the_block():
    """The PTDF basis is read only where it is built, ``network``, and by
    ``jacobian.reduced_solve``, the one owner of the reduced block; the
    dead-branch rule reads the graph's side table instead."""
    readers = {r for r in _readers("ptdf_basis") if not r.startswith("network")}
    assert readers == {"jacobian.reduced_solve"}


def test_adjacency_is_read_by_the_graph_alone():
    """Only ``network`` reads the adjacency, and each read is the first
    argument of a ``_low_links`` call, the package's one graph walk: the
    blocks and the separation-pair table come from it, and bridges, the
    side table, the dead-branch rule, the series classes and the
    decomposition are read off them."""
    assert {r.split(".")[0] for r in _readers("adjacency")} == {"network"}
    reads, walked = set(), set()
    for node in ast.walk(_trees()["network"]):
        if isinstance(node, ast.Attribute) and node.attr == "adjacency":
            reads.add(node)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_low_links":
            walked.add(node.args[0])
    assert reads and reads == walked
