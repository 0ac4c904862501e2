"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skipchurn"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"engine.py", "overlay.py", "stabilizers.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a check written as one vanishes.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}; raise instead"


def test_engine_imports_only_the_stabilizer_kinds_and_factory():
    # The engine drives every store through one protocol, so it must not
    # reach for a store class or any other stabilizer internals.
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"), filename="engine.py")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "stabilizers":
                found |= {alias.name for alias in node.names}
            else:
                found |= {alias.name for alias in node.names if alias.name == "stabilizers"}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.endswith("stabilizers")}
    assert found == {"STABILIZER_KINDS", "make_stabilizer"}


def _definitions(tree: ast.Module):
    """Every top-level function and class of a module, and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def _uses(node: ast.AST) -> list[str]:
    """Names read under ``node``: identifiers, attribute names and string constants.

    Strings count because a name that ``getattr`` reads, such as a counter
    in ``RunMetrics.FIGURES``, is written as one.
    """
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.append(sub.value)
    return found


def test_every_definition_is_reached_from_the_package():
    # Code that only tests reach belongs in tests/: each function, class and
    # method must be named somewhere in the package outside its own body.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    used = Counter(name for tree in trees.values() for name in _uses(tree))
    unreached = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] <= _uses(node).count(name):
                unreached.append(f"{module}:{node.lineno} {name}")
    assert unreached == [], "defined but never used in the package: " + ", ".join(unreached)


def test_only_the_status_feed_writes_a_history():
    # A node's history is the one record of its status bits, which every
    # predictor kind reads; a push from anywhere else would give some kinds a
    # bit twice, or one they did not count.
    pushes = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for cls in ast.walk(tree):  # breadth first, so an inner class wins
            if isinstance(cls, ast.ClassDef):
                owner.update((sub, cls.name) for sub in ast.walk(cls))
        pushes += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "push"
        ]
    assert pushes and set(pushes) == {("predictors.py", "StatusFeed")}, pushes


# Imported and never called: perfbench/tracing.py patches these names in
# bench and reports a missing trace target if they are gone.
IMPORTED_FOR_THE_TRACER = {("bench.py", "draw_arrival_count"), ("bench.py", "draw_session_length")}


def test_every_import_is_used():
    # An import that nothing reads is dead code the definition check cannot see.
    unused = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused |= {(path.name, name) for name in names if name not in read}
    assert unused == IMPORTED_FOR_THE_TRACER
