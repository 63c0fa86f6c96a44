"""Checks on the shape of the package's source, not on its results."""

import ast
from pathlib import Path

import locfree

SOURCES = sorted(Path(locfree.__file__).parent.glob("*.py"))


def test_every_private_helper_has_a_caller_in_src():
    # a helper that only the tests call belongs in tests/
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set()
    defined = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((name, node.name))
    assert SOURCES
    assert [f"{name}: {helper}" for name, helper in defined if helper not in referenced] == []
