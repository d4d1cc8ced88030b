"""Invariant checks must survive ``python -O``: no ``assert`` in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import localgraphs

PACKAGE = Path(localgraphs.__file__).resolve().parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
