"""Package-wide invariants.

Invariant checks must survive ``python -O``: no ``assert`` in the
package.  Copies of a valid graph derive their port tables from the
source's and never re-validate through ``build_graph``.  Every function
the benchmark's traced run wraps still exists under its name.  No code
names the retired ``needs_colour`` flag.  Every error class is raised
or extended somewhere.  Bits are counted with ``int.bit_count``, never
through a binary string.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import localgraphs
from localgraphs import errors
from localgraphs.generators import random_bipartite, random_weak, shuffle_ports
from localgraphs.graph import (disjoint_union, induced_subgraph, relabel,
                               with_colours)
from localgraphs.oddds import build_h2, partition_abc

PACKAGE = Path(localgraphs.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_derived_copies_never_reach_build_graph(monkeypatch):
    weak = random_weak(30, 3, 4)
    bip = random_bipartite(30, 4, 4)

    def unreachable(*args, **kwargs):
        raise AssertionError("build_graph called for a derived copy")

    patched = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "localgraphs" and hasattr(m, "build_graph")]
    assert localgraphs.graph in patched and localgraphs.generators in patched
    for module in patched:
        monkeypatch.setattr(module, "build_graph", unreachable)
    with pytest.raises(AssertionError):
        localgraphs.graph.build_graph(2, [(0, 1, 1, 1)])
    for g in (weak, bip):
        part = partition_abc(g)
        with_colours(g, None)
        relabel(g, list(reversed(range(g.n))))
        shuffle_ports(g, 1)
        disjoint_union(g, g)
        induced_subgraph(g, part.a | part.b)
        h2 = build_h2(g, part)
        assert h2.graph.n >= h2.base.n


def test_bench_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    targets = importlib.import_module("layers").TARGETS
    assert targets
    missing = []
    for t in targets:
        obj = importlib.import_module(t.module)
        for part in t.attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{t.module}.{t.attr}")
    assert missing == []


def test_no_retired_colour_flag():
    # the engine reads only ``needs_colouring``; an algorithm that still set
    # ``needs_colour`` would silently lose its refusal
    sources = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    fields = ("id", "attr", "arg", "name")    # names, attributes, parameters, definitions
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if any(getattr(node, f, None) == "needs_colour" for f in fields)]
    assert found == []


def test_every_error_class_is_raised_or_extended():
    # an error class nothing raises is a dead feature, and it would still
    # claim an exit code in the CLI's contract
    raised, bases = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.ClassDef):
                bases.update(getattr(b, "id", None) for b in node.bases)
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.LocalGraphError)}
    assert sorted(classes - raised - bases) == []


def test_no_binary_string_popcount():
    # ``bin(x).count("1")`` builds a string per call; ``x.bit_count()``
    # gives the same count without one (Python >= 3.10)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "count"
                  and isinstance(node.func.value, ast.Call)
                  and getattr(node.func.value.func, "id", None) == "bin"]
    assert found == []
