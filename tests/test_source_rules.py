"""Rules for the program's own source under ``src/multihop``, checked by parsing it."""

import ast
from pathlib import Path

import pytest
from test_wrap_points import _wraps

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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda path: path.name)
def test_every_import_is_used_or_wrapped(path):
    """A name imported into a module is read there, or the benchmark wraps it at that
    module; once a wrap goes, so must an import kept only for it."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr, _, _ in _wraps() if module == path.stem}
    assert sorted(imported - read - wrapped) == [], path.name
