"""The package keeps its invariants under `python -O`: no `assert` statements.

A broken invariant raises RuntimeError (or ValueError for bad input) instead,
which optimisation does not strip.
"""
import ast
from pathlib import Path

import obroute

SOURCES = sorted(Path(obroute.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
