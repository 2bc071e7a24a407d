"""The README's examples run, and every source file parses as Python 3.10.

The quick start and each ``opfsens`` line of the command-line block run in a
fresh process with ``PYTHONPATH=src``, as ``tests/test_demos.py`` runs the
demos. The CI matrix also tests Python 3.10, the oldest that
``pyproject.toml`` accepts; parsing with ``feature_version=(3, 10)`` catches
newer syntax on any interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)


def _cli_lines() -> list[list[str]]:
    """Each ``opfsens ...`` command of the README's shell blocks, its
    continuation lines joined, as an argument list."""
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("opfsens "):
                lines.append(shlex.split(line)[1:])
    return lines


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV,
                          cwd=ROOT, timeout=120)


def test_quick_start_runs():
    (code,) = [b for b in _blocks("python") if "import opfsens" in b]
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr


CLI_LINES = _cli_lines()


def test_readme_lists_every_command():
    assert {argv[0] for argv in CLI_LINES} == {
        "report", "sens-wcs", "solve", "sens-local", "sens-miso", "decompose"}


@pytest.mark.parametrize("argv", CLI_LINES, ids=lambda argv: argv[0])
def test_cli_line_runs(argv):
    proc = _run(["-m", "opfsens.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    if "json" in argv:
        json.loads(proc.stdout)


SOURCES = sorted(p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 30


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
