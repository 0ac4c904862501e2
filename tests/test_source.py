"""Checks on the package source itself."""

import ast
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
