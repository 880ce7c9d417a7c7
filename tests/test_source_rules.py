"""Rules for the program's own source under ``src/multihop``, checked by parsing it."""

import ast
import re
from pathlib import Path

import pytest
from test_wrap_points import _wraps

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "multihop").glob("*.py"))


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


def test_only_schedule_and_capacity_name_the_period_columns():
    """``schedule.slot_plan`` is the one grouping of a period's events by slot, and ``capacity``
    reads the columns as arrays: its cached links and phases, and ``period_events`` for the sorted
    events. Slots are numbered in ``schedule`` alone, so ``capacity`` never names ``period_slots``;
    a third module naming any of the columns would group them again."""
    naming = {
        "period_events": ["capacity.py", "schedule.py"],
        "period_links": ["capacity.py", "schedule.py"],
        "period_phases": ["capacity.py", "schedule.py"],
        "period_slots": ["schedule.py"],
    }
    for name, modules in naming.items():
        assert [path.name for path in SOURCES if re.search(r"\b%s\b" % name, path.read_text())] == modules, name


def _defined(tree):
    """Names a module defines at its top level: functions, classes and assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _read(path):
    """Names a file reads, bare or as an attribute; importing a name does not read it."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_reader_outside_the_tests():
    """Each public top-level function, class or constant of ``src/multihop`` is read by the program,
    a demo or the benchmark's wraps. A name only tests read is API kept for its tests, and goes."""
    read = {name for path in [*SOURCES, *sorted((ROOT / "demos").glob("*.py"))] for name in _read(path)}
    read |= {attr for _, attr, _, _ in _wraps()}
    unread = [
        "%s.%s" % (path.stem, name)
        for path in SOURCES
        for name in _defined(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in read
    ]
    assert unread == []
