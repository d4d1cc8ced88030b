"""Tests for the benchmark's own helpers.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from layers import TARGETS  # noqa: E402
from program import ROOT, all_modules, import_program  # noqa: E402
from tracing import NO_PARENT, Target, Tracer, self_times  # noqa: E402


# -- percentile rule -------------------------------------------------------------

def test_nearest_rank_percentile_returns_a_sample():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_highest_reportable_needs_ten_samples_beyond():
    assert stats.highest_reportable(1000) == 99       # 10 beyond p99
    assert stats.highest_reportable(999) == 90        # only 9 beyond p99
    assert stats.highest_reportable(10000) == 99.9
    assert stats.highest_reportable(40) == 75
    assert stats.highest_reportable(19) is None       # 9 beyond the median
    assert stats.samples_beyond(1000, 99) == 10


def test_min_samples_match_the_rule():
    for pct in (50, 75, 90, 99):
        n = stats.min_samples_for(pct)
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND
        assert stats.samples_beyond(n - 1, pct) < stats.MIN_BEYOND
    assert stats.min_samples_for(99) == 1000


def test_median_and_empty_samples():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- fail ratio base ---------------------------------------------------------------

def test_fail_ratio_carries_its_base():
    assert stats.fail_ratio(0, 120) == {"value": 0.0, "failed": 0, "attempted": 120}
    assert stats.fail_ratio(3, 12)["value"] == 0.25
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(5, 4)


# -- self time -----------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root [0, 10] > child [1, 5] > grandchild [2, 3]
    start, end, parent = [0, 1, 2], [10, 5, 3], [NO_PARENT, 0, 1]
    assert self_times(start, end, parent) == [6, 3, 1]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 4] and [3, 6] overlap; [8, 12] sticks out of the parent
    start = [0, 1, 3, 8]
    end = [10, 4, 6, 12]
    parent = [NO_PARENT, 0, 0, 0]
    selfs = self_times(start, end, parent)
    assert selfs[0] == 10 - (5 + 2)
    assert selfs[1:] == [3, 3, 4]


def test_self_times_add_up_to_covered_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            with tracer.span("d"):
                pass
    root = tracer.end[0] - tracer.start[0]
    assert sum(self_times(tracer.start, tracer.end, tracer.parent)) == root
    assert list(tracer.parent) == [NO_PARENT, 0, 0, 2]


# -- wrapping and restoring ------------------------------------------------------------

def _fake_modules():
    lib = types.ModuleType("fake.lib")
    exec("def f(x):\n    return x + 1\n"
         "class Alg:\n    def step(self, x):\n        return x, {1: b'ab'}\n",
         lib.__dict__)
    lib.f.__module__ = "fake.lib"
    user = types.ModuleType("fake.user")
    user.f = lib.f
    special = types.ModuleType("fake.special")
    special.f = lib.f
    return lib, user, special


def test_wrappers_cover_aliases_and_are_restored():
    lib, user, special = _fake_modules()
    original_f, original_step = lib.f, lib.Alg.__dict__["step"]
    seen = []
    targets = [Target("lib.f", "fake.lib", "f"),
               Target("special.f", "fake.special", "f"),
               Target("lib.step", "fake.lib", "Alg.step",
                      lambda c, a, k, r, t: seen.append(r[1]))]
    tracer = Tracer()
    tracer.install(targets, [lib, user, special])
    try:
        assert lib.f(1) == user.f(1) == special.f(1) == 2
        assert lib.Alg().step(5) == (5, {1: b"ab"})
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["lib.f", "lib.f", "special.f", "lib.step"]
    assert seen == [{1: b"ab"}]
    assert lib.f is original_f and user.f is original_f and special.f is original_f
    assert lib.Alg.__dict__["step"] is original_step


def test_program_wrappers_leave_nothing_behind():
    lg = import_program()
    modules = all_modules(lg)
    classes = [lg.starforest.StarForestAlgorithm, lg.matching.MatchingSchemeAlgorithm]
    before = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    tracer = Tracer()
    tracer.install(TARGETS, modules)
    assert lg.graph.build_graph is not before[modules.index(lg.graph)]["build_graph"]
    assert lg.generators.build_graph is not before[modules.index(lg.generators)]["build_graph"]
    g = lg.generators.random_bipartite(12, 3, 1)
    lg.matching.run_matching_scheme(g, 1)
    tracer.restore()
    after = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)
    counted = {tracer.names[i] for i in tracer.name_id}
    assert {"generators.random_bipartite", "matching.step", "matching.classify_colouring",
            "engine.run_local_algorithm"} <= counted
    assert tracer.counters["engine.messages"] > 0


# -- BENCHMARK.json ---------------------------------------------------------------------

def test_benchmark_json_matches_spec():
    import spec
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


# -- host normalisation -----------------------------------------------------------------

def test_times_scale_by_the_probe_of_their_pass():
    import harness
    m = harness.Measurement()
    m.latencies_s = [[1.0, 3.0], [2.0, 6.0], [0.5, 1.5]]
    m.sim = [[(10, 1.0), (0, 0.0)], [(10, 2.0), (0, 0.0)], [(10, 0.5), (0, 0.0)]]
    ref = harness.REF_PROBE_S
    m.probes_s = [[ref], [2 * ref, 2 * ref, 9 * ref], [ref / 2]]   # pass 2 ran at half speed
    norm = harness.end_to_end(m)
    assert norm["wall_s"] == pytest.approx(4.0)
    assert norm["checks_per_s"] == pytest.approx(0.5)
    assert norm["check_p50_ms"] == pytest.approx(2000.0)
    assert norm["sim_node_rounds_per_s"] == pytest.approx(10.0)
    raw = harness.end_to_end(m, normalised=False)
    assert raw["wall_s"] == pytest.approx(4.0)       # median of 1, 2, 0.5 plus of 3, 6, 1.5
    assert harness.host_factor([ref, 3 * ref, 2 * ref]) == pytest.approx(0.5)
