"""Rules for the program's own source under ``src/multihop``, checked by parsing it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "multihop").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_tuples_are_built_from_lists_not_generators(path):
    """``tuple(<generator>)`` grows its tuple in steps, and on the packet path
    that moved the benchmark's peak memory; ``tuple([...])`` sizes it once."""
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]
    assert found == [], "%s: tuple(<generator>) at lines %s" % (path.name, found)
