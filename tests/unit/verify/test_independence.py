"""The checkers share no code with the algorithms or the benchmark.

A bug must appear twice to slip through: once in the algorithm and once
in the checker that judges it.  So the definition-level checkers import
nothing from ``repro.core``, and nothing from ``perfbench/``, whose own
checker stays an independent check on them.
"""

import ast
from pathlib import Path

import pytest

import repro.verify

CHECKERS = ["_arrays", "edge_coloring", "strong_coloring", "partial", "matching"]


@pytest.mark.parametrize("module", CHECKERS)
def test_checker_imports_neither_core_nor_perfbench(module):
    path = Path(repro.verify.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.startswith(("repro.core", "perfbench"))]
