"""Package-wide invariants.

Invariant checks must survive ``python -O``: no ``assert`` in the
package.  Copies of a valid graph derive their port tables from the
source's and never re-validate through ``build_graph``.  Every function
the benchmark's traced run wraps still exists under its name.  No code
names the retired ``needs_colour`` flag.  Every error class is raised
or extended somewhere.  Bits are counted with ``int.bit_count``, never
through a binary string.  Importing the generators loads neither the
odd-Δ pipeline nor the star forest.  Importing the CLI loads no
``dataclasses``: the package's records are ``NamedTuple``s, immutable,
with their field names, order and repr pinned here, and
``SchemeStats`` is a plain class compared by value.  A package dropped
from ``sys.modules`` and imported again leaves no old module alive.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import localgraphs
from localgraphs import engine, errors, generators, matching, oddds, oracles, starforest
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


# -- start-up and records ------------------------------------------------------

def test_cli_import_loads_no_dataclasses():
    # a fresh interpreter without site-packages, so nothing but the package
    # and the standard library it imports can bring the module in
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import localgraphs.cli; "
            "print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_cli_import_loads_no_hashlib_or_fractions():
    # only a traced run digests states, and the report ratios are plain
    # integer arithmetic, so a command that traces nothing pays for neither
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import localgraphs.cli; "
            "print('hashlib' in sys.modules, 'fractions' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def test_generators_import_loads_no_odd_delta_pipeline():
    # the generators need the colour-flip sweep only, which lives in `graph`
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import localgraphs.generators; "
            "print('localgraphs.oddds' in sys.modules, 'localgraphs.starforest' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def test_reimport_leaves_no_old_module_alive():
    # a package class inside a module-level typing alias would sit in typing's
    # subscription cache, and keep the old class and every module it reaches;
    # the CLI imports every module of the package
    code = ("import gc, sys, weakref; sys.path.insert(0, sys.argv[1]); import localgraphs.cli; "
            "old = weakref.ref(localgraphs.graph.Graph); "
            "[sys.modules.pop(m) for m in list(sys.modules) if m.split('.')[0] == 'localgraphs']; "
            "import localgraphs.cli; gc.collect(); print(old() is None)")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_package_does_not_import_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


RECORDS = {
    engine.NodeView: ("degree", "max_degree", "colour", "port_directions"),
    engine.RunResult: ("outputs", "rounds_used", "max_message_bits", "steps"),
    oracles.Solution: ("kind", "members"),
    oracles.VerificationReport: ("ok", "violations"),
    oddds.AbcPartition: ("a", "b", "c"),
    oddds.DummyAugmentedGraph: ("graph", "base", "original_ids"),
    oddds.OddDeltaResult: ("partition", "h2", "core_colours", "core_roots",
                           "dominating_set", "star_run"),
    matching.AugmentingForest: ("height", "parent_port", "roots", "leaves"),
    starforest.StarForest: ("stars",),
    generators.DirectedCycle: ("n",),
}


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda record: record.__name__)
def test_record_fields_construction_and_immutability(record):
    fields = RECORDS[record]
    values = [object() for _ in fields]
    by_position = record(*values)
    assert record(**dict(zip(fields, values))) == by_position
    assert [getattr(by_position, f) for f in fields] == values
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, f, None)
    with pytest.raises(AttributeError):
        by_position.extra = None


def test_record_repr_names_every_field():
    assert (repr(engine.NodeView(3, 3, "black", None))
            == "NodeView(degree=3, max_degree=3, colour='black', port_directions=None)")


def test_scheme_stats_compare_by_value():
    a, b = matching.SchemeStats(), matching.SchemeStats()
    assert a == b
    for stats in (a, b):
        stats.record(1, 2, 3)
        stats.record(2, 0, 3, times=4)
    assert a == b
    b.record(2, 0, 3)
    assert a != b
    assert repr(a) == ("SchemeStats(invocations={1: 1, 2: 4}, "
                       "augmentations=[2, 0, 0, 0, 0], sizes=[3, 3, 3, 3, 3])")


def test_verification_report_violations_are_a_list():
    g = random_weak(10, 3, 1)
    everyone = oracles.Solution(oracles.SolutionKind.DOMINATING_SET, frozenset(g.nodes))
    nobody = oracles.Solution(oracles.SolutionKind.DOMINATING_SET, frozenset())
    report = oracles.verify_solution(g, everyone)
    assert report.ok and report.violations == []
    report = oracles.verify_solution(g, nobody)
    assert not report.ok and type(report.violations) is list and report.violations
