"""Odd degree bound pipeline: partition, dummies, repair, full bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest

from localgraphs import BLACK, WHITE, ColouringClass, build_graph, classify_colouring
from localgraphs.errors import (EvenDeltaError, MissingOrientationError,
                                NotWeakOnAError, ProviderFailureError)
from localgraphs.generators import random_weak
from localgraphs.oddds import (build_h2, centralized_weak_colouring,
                               fixup_weak_colouring, odd_delta_dominating_set,
                               odd_delta_pipeline, partition_abc,
                               repair_b_colours)
from localgraphs.oracles import (Solution, SolutionKind,
                                 brute_min_dominating_set, verify_solution)

from conftest import ascending_ports


def oriented_path(n):
    return ascending_ports(n, [(i, i + 1) for i in range(n - 1)],
                           directions={(i, i + 1): "uv" for i in range(n - 1)})


class TestPartition:
    def test_k4_all_odd(self, k4_oriented):
        part = partition_abc(k4_oriented)
        assert part.a == {0, 1, 2, 3} and not part.b and not part.c

    def test_p5_split(self):
        part = partition_abc(oriented_path(5))
        assert part.a == {0, 4}
        assert part.b == {1, 3}
        assert part.c == {2}

    def test_c4_all_rest(self, c4_coloured):
        part = partition_abc(c4_coloured)
        assert not part.a and not part.b and part.c == {0, 1, 2, 3}

    def test_core_degrees_below_bound(self):
        # with an odd bound, even-degree nodes sit strictly below it
        delta = 5
        for seed in range(20):
            g = random_weak(14, delta, seed)
            part = partition_abc(g)
            assert all(g.degree(v) <= delta - 1 for v in part.b | part.c)


class TestBuildH2:
    def test_p3_middle_gets_dummy(self):
        g = oriented_path(3)
        h2 = build_h2(g, partition_abc(g))
        assert h2.real_count == 3
        assert h2.graph.n == 4
        assert h2.dummy_hosts == {3: 1}
        assert all(h2.graph.degree(v) % 2 == 1 for v in h2.graph.nodes)

    def test_k4_needs_no_dummies(self, k4_oriented):
        h2 = build_h2(k4_oriented, partition_abc(k4_oriented))
        assert h2.graph.n == 4 and not h2.dummy_hosts

    def test_empty_core(self, c4_coloured):
        h2 = build_h2(c4_coloured, partition_abc(c4_coloured))
        assert h2.graph.n == 0 and h2.real_count == 0

    def test_all_odd_everywhere(self):
        for seed in range(30):
            g = random_weak(16, 5, seed)
            h2 = build_h2(g, partition_abc(g))
            assert all(h2.graph.degree(v) % 2 == 1 for v in h2.graph.nodes)

    def test_dummy_rule_fires_only_in_b(self):
        # odd-degree nodes keep all their neighbours inside the core
        for seed in range(30):
            g = random_weak(16, 5, seed)
            part = partition_abc(g)
            h2 = build_h2(g, part)
            a_core = {i for i, orig in enumerate(h2.original_ids) if orig in part.a}
            hosts = set(h2.dummy_hosts.values())
            assert not (hosts & a_core)


class TestRepair:
    def test_flip_when_all_a_neighbours_match(self):
        h = oriented_path(3)
        out = repair_b_colours(h, [0, 2], [1], [WHITE, WHITE, WHITE])
        assert out == [WHITE, BLACK, WHITE]
        assert classify_colouring(h, out) >= ColouringClass.WEAK

    def test_no_flip_with_opposite_neighbour(self):
        h = oriented_path(3)
        out = repair_b_colours(h, [0, 2], [1], [BLACK, WHITE, BLACK])
        assert out == [BLACK, WHITE, BLACK]

    def test_unrepairable_raises(self):
        h = build_graph(2, [(0, 1, 1, 1)])
        with pytest.raises(NotWeakOnAError):
            repair_b_colours(h, [0, 1], [], [WHITE, WHITE])

    def test_never_touches_odd_nodes(self):
        for seed in range(20):
            g = random_weak(14, 5, seed)
            part = partition_abc(g)
            h2 = build_h2(g, part)
            if not h2.real_count:
                continue
            colours = centralized_weak_colouring(h2.graph)[:h2.real_count]
            ids = {orig: i for i, orig in enumerate(h2.original_ids)}
            a_core = [ids[v] for v in part.a]
            b_core = [ids[v] for v in part.b]
            repaired = repair_b_colours(h2.base, a_core, b_core, colours)
            for v in a_core:
                assert repaired[v] == colours[v]


class TestProviders:
    def test_centralized_always_weak(self):
        for seed in range(30):
            g = random_weak(15, 4, seed, oriented=False)
            colours = centralized_weak_colouring(g)
            assert classify_colouring(g, colours) >= ColouringClass.WEAK

    def test_fixup_from_constant(self):
        g = ascending_ports(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        out = fixup_weak_colouring([g.neighbours(v) for v in g.nodes], [WHITE] * 5)
        assert classify_colouring(g, out) >= ColouringClass.WEAK

    def test_bad_provider_rejected(self, k4_oriented):
        with pytest.raises(ProviderFailureError):
            odd_delta_dominating_set(k4_oriented, provider=lambda h: [WHITE] * h.n)
        with pytest.raises(ProviderFailureError):
            odd_delta_dominating_set(k4_oriented, provider=lambda h: [WHITE])


class TestPipeline:
    def test_k4(self, k4_oriented):
        d = odd_delta_dominating_set(k4_oriented)
        assert len(d) <= 2
        assert verify_solution(k4_oriented,
                               Solution(SolutionKind.DOMINATING_SET, d)).ok
        optimum = brute_min_dominating_set(k4_oriented)
        assert Fraction(len(d), len(optimum)) <= 3

    def test_c4_with_declared_bound(self):
        c4 = ascending_ports(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                             directions={(0, 1): "uv", (1, 2): "uv",
                                         (2, 3): "uv", (0, 3): "vu"})
        d = odd_delta_dominating_set(c4, max_degree=3)
        assert d == {0, 1, 2, 3}          # the whole rest class
        assert len(brute_min_dominating_set(c4)) == 2

    def test_single_edge_delta_one(self):
        g = build_graph(2, [(0, 1, 1, 1, "uv")])
        d = odd_delta_dominating_set(g)
        assert len(d) == 1

    def test_even_bound_rejected(self, c4_coloured):
        c4 = ascending_ports(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                             directions={(0, 1): "uv", (1, 2): "uv",
                                         (2, 3): "uv", (0, 3): "uv"})
        with pytest.raises(EvenDeltaError):
            odd_delta_dominating_set(c4)    # actual max degree 2

    def test_orientation_required(self):
        star = ascending_ports(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(MissingOrientationError):
            odd_delta_dominating_set(star)

    def test_declared_below_actual_rejected(self, k4_oriented):
        with pytest.raises(ValueError):
            odd_delta_dominating_set(k4_oriented, max_degree=1)

    def test_bounds_and_counting_inequalities(self):
        for seed in range(40):
            delta = 3 if seed % 2 else 5
            g = random_weak(12, delta, seed)
            result = odd_delta_pipeline(g, max_degree=delta)
            part = result.partition
            d = result.dominating_set
            assert verify_solution(g, Solution(SolutionKind.DOMINATING_SET, d)).ok
            # the proof's size bound on the construction
            assert 2 * len(d) <= len(part.a) + len(part.b) + 2 * len(part.c)
            optimum = brute_min_dominating_set(g)
            assert len(d) <= delta * len(optimum)
            # counting inequalities satisfied by any dominating set
            d1 = len(optimum & part.a)
            d2 = len(optimum & (part.b | part.c))
            assert (delta + 1) * d1 + delta * d2 >= g.n
            assert delta * d2 >= len(part.c)
