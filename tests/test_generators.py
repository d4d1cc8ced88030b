"""Generators: structural claims of every construction, plus extractions."""

from __future__ import annotations

import random
import re

import pytest

from localgraphs import (BLACK, INCOMING, OUTGOING, WHITE, ColouringClass,
                         classify_colouring)
from localgraphs.engine import view_classes
from localgraphs.errors import MalformedSolutionError
from localgraphs import generators
from localgraphs.generators import (_bipartite_cover, _fill_random_edges,
                                    _pairing_cover, cycle_power,
                                    matching_to_independent_set,
                                    merge_layer_independent_sets,
                                    numbered_cycle, random_bipartite,
                                    random_weak, random_weak_colouring,
                                    shuffle_ports, strong_blowup,
                                    symmetric_complete,
                                    weak_layered,
                                    weak_layered_perfect_matching)
from localgraphs.graph import edge_specs, with_colours
from localgraphs.oracles import (Solution, SolutionKind, brute_min_dominating_set,
                                 verify_solution)

from conftest import ascending_ports


class TestNumberedCycle:
    def test_triangle(self):
        c = numbered_cycle(3)
        specs = edge_specs(c.graph)
        assert c.graph.n == 3 and len(specs) == 3
        assert all(d is not None for *_, d in specs)

    def test_in_and_out_degree_one(self):
        c = numbered_cycle(4)
        for v in c.graph.nodes:
            assert c.graph.port_directions(v) == (OUTGOING, INCOMING)   # each edge points v -> v+1

    def test_too_small(self):
        with pytest.raises(ValueError, match="cycle needs at least 3 nodes"):
            numbered_cycle(2)

    def test_port_convention(self):
        c = numbered_cycle(5)
        for v in range(5):
            assert c.graph.port_neighbour(v, 1) == c.successor(v)
            assert c.graph.port_neighbour(v, 2) == c.predecessor(v)

    def test_construction_builds_nothing_and_reads_are_shared(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("graph built by numbered_cycle")

        with monkeypatch.context() as m:
            m.setattr(generators, "build_graph", unreachable)
            c = numbered_cycle(7)
        assert c.graph is c.graph is numbered_cycle(7).graph


class TestCyclePower:
    def test_regularity_and_edge_count(self):
        g = cycle_power(numbered_cycle(8), 2)
        assert g.n == 8 and g.edge_count == 16
        assert all(g.degree(v) == 4 for v in g.nodes)

    def test_complete_when_distance_covers(self):
        g = cycle_power(numbered_cycle(5), 2)
        assert g.edge_count == 10   # K5

    def test_perfect_code_size(self):
        g = cycle_power(numbered_cycle(9), 1)
        assert len(brute_min_dominating_set(g)) == 3

    def test_degenerate(self):
        with pytest.raises(ValueError, match="need n > 2k >= 2"):
            cycle_power(numbered_cycle(4), 2)


class TestStrongBlowup:
    def test_structure(self):
        g = strong_blowup(numbered_cycle(8), 3)
        assert g.n == 16
        assert all(g.degree(v) == 3 for v in g.nodes)
        assert classify_colouring(g) is ColouringClass.PROPER

    def test_optimum_when_divisible(self):
        g = strong_blowup(numbered_cycle(8), 3)
        assert len(brute_min_dominating_set(g)) == 4   # 2n/(delta+1)

    def test_delta_one_is_perfect_matching_graph(self):
        g = strong_blowup(numbered_cycle(4), 1)
        assert g.n == 8 and g.edge_count == 4
        assert all(g.degree(v) == 1 for v in g.nodes)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="need n > delta >= 1"):
            strong_blowup(numbered_cycle(3), 3)


class TestWeakLayered:
    def test_structure(self):
        g = weak_layered(numbered_cycle(4), 3)
        assert g.n == 16
        assert classify_colouring(g) is ColouringClass.WEAK
        degrees = sorted(g.degree(v) for v in g.nodes)
        assert degrees == [3] * 16     # blacks delta=3, whites 3

    def test_degree_split_delta5(self):
        g = weak_layered(numbered_cycle(4), 5)
        blacks = [v for v in g.nodes if g.colour(v) == BLACK]
        whites = [v for v in g.nodes if g.colour(v) == WHITE]
        assert all(g.degree(v) == 5 for v in blacks)
        assert all(g.degree(v) == 3 for v in whites)

    def test_explicit_perfect_matching(self):
        c = numbered_cycle(4)
        g = weak_layered(c, 3)
        pm = weak_layered_perfect_matching(c, 3)
        assert len(pm) == 8            # (delta+1) * n / 2
        assert verify_solution(g, Solution(SolutionKind.MATCHING, pm)).ok
        assert len({x for e in pm for x in e}) == g.n

    def test_odd_cycle_rejected(self):
        with pytest.raises(ValueError, match="need an even cycle"):
            weak_layered(numbered_cycle(5), 3)

    def test_small_delta_rejected(self):
        with pytest.raises(ValueError, match="need delta >= 3"):
            weak_layered(numbered_cycle(4), 2)

    @pytest.mark.parametrize("delta", [-1, 0, 1, 2])
    def test_perfect_matching_refuses_what_the_graph_refuses(self, delta):
        message = f"need delta >= 3, got {delta}"
        with pytest.raises(ValueError, match=message):
            weak_layered(numbered_cycle(4), delta)
        with pytest.raises(ValueError, match=message):
            weak_layered_perfect_matching(numbered_cycle(4), delta)


class TestSymmetricComplete:
    def test_k4_views_indistinguishable(self):
        g = symmetric_complete(3)
        assert g.n == 4 and g.edge_count == 6
        assert view_classes([g], 3) == [[0] * g.n]

    def test_symmetric_ports(self):
        g = symmetric_complete(5)
        for u in g.nodes:
            for p in range(1, g.degree(u) + 1):
                assert g.route(u, p)[1] == p

    def test_single_edge_case(self):
        g = symmetric_complete(1)
        assert g.n == 2 and g.routes() == (((1, 1),), ((0, 1),))

    def test_even_delta_rejected(self):
        with pytest.raises(ValueError, match="only for odd delta"):
            symmetric_complete(4)


class TestMatchingToIndependentSet:
    def test_c6(self):
        c = numbered_cycle(6)
        out = matching_to_independent_set(c, {(1, 2), (3, 4)})
        assert out == {1, 3}
        assert verify_solution(c.graph,
                               Solution(SolutionKind.INDEPENDENT_SET, out)).ok

    def test_empty(self):
        assert matching_to_independent_set(numbered_cycle(5), frozenset()) == frozenset()

    def test_c4_reaches_optimum(self):
        c = numbered_cycle(4)
        out = matching_to_independent_set(c, {(0, 1), (2, 3)})
        assert len(out) == 2 == c.n // 2

    def test_wrap_around_edge_tail(self):
        c = numbered_cycle(5)
        assert matching_to_independent_set(c, {(0, 4)}) == {4}

    def test_non_cycle_edge_rejected(self):
        c = numbered_cycle(6)
        with pytest.raises(MalformedSolutionError,
                           match=r"^\(0, 3\) is not an edge of the graph$"):
            matching_to_independent_set(c, {(0, 3)})

    @pytest.mark.parametrize("member", [("a", 1), (0, 1, 2), (0,), 5])
    def test_member_that_is_not_a_pair_of_numbers_rejected(self, member):
        with pytest.raises(MalformedSolutionError,
                           match=f"^{re.escape(repr(member))} is not an edge of the graph$"):
            matching_to_independent_set(numbered_cycle(6), [member])


class TestMergeLayers:
    def test_hand_executed(self):
        c = numbered_cycle(6)
        merged = merge_layer_independent_sets(c, [{1, 4}, {2, 5}])
        assert merged == {1, 4}
        assert 2 * len(merged) * 3 >= 2 * 4   # 2 >= 4/3

    def test_all_empty(self):
        assert merge_layer_independent_sets(numbered_cycle(6), [set(), set()]) == frozenset()

    def test_worst_case_loses_factor(self):
        # one survivor can wipe two nodes from each later layer
        c = numbered_cycle(12)
        layers = [{0}, {11, 1}, {11, 1}, {11, 1}]
        merged = merge_layer_independent_sets(c, layers)
        assert merged == {0}
        total = sum(len(s) for s in layers)
        assert total == 2 * len(layers) - 1   # exactly the 2*delta - 1 bound

    def test_not_independent_rejected(self):
        with pytest.raises(MalformedSolutionError,
                           match=r"^layer 0: edge \(0, 1\) lies inside the set$"):
            merge_layer_independent_sets(numbered_cycle(6), [{0, 1}])

    @pytest.mark.parametrize("member", [0.5, True, "1", -1, 6, None],
                             ids=["float", "bool", "str", "negative", "n", "none"])
    def test_non_node_member_rejected(self, member):
        with pytest.raises(MalformedSolutionError,
                           match=f"^layer 0: {re.escape(repr(member))} is not a node$"):
            merge_layer_independent_sets(numbered_cycle(6), [[member, 3]])

    def test_bound_holds_randomly(self):
        import random
        rng = random.Random(5)
        for trial in range(200):
            n = rng.randrange(4, 30)
            c = numbered_cycle(n)
            layers = []
            for _ in range(rng.randrange(1, 5)):
                layer = set()
                for v in range(n):
                    if rng.random() < 0.4 and (v + 1) % n not in layer \
                            and (v - 1) % n not in layer:
                        layer.add(v)
                layers.append(layer)
            merged = merge_layer_independent_sets(c, layers)
            assert verify_solution(c.graph, Solution(
                SolutionKind.INDEPENDENT_SET, merged)).ok
            total = sum(len(s) for s in layers)
            assert len(merged) * (2 * len(layers) - 1) >= total


def colour_class(g, colour):
    return frozenset(v for v in g.nodes if g.colour(v) == colour)


def recoloured(g, seed):
    return with_colours(g, random_weak_colouring(g, seed))


def independence_violations(g, members):
    return verify_solution(g, Solution(SolutionKind.INDEPENDENT_SET, members)).violations


class TestColourClassesAsIndependentSets:
    """A proper 2-colouring's white nodes form an independent set."""

    def test_single_edge(self, single_edge):
        assert colour_class(single_edge, WHITE) == {1}
        assert independence_violations(single_edge, frozenset({1})) == []

    def test_star_white_leaves(self):
        g = ascending_ports(4, [(0, 1), (0, 2), (0, 3)],
                            colours=[BLACK, WHITE, WHITE, WHITE])
        assert colour_class(g, WHITE) == {1, 2, 3}
        assert independence_violations(g, colour_class(g, WHITE)) == []

    def test_c6_reaches_half(self):
        g = ascending_ports(6, [(i, (i + 1) % 6) for i in range(6)],
                            colours=[BLACK, WHITE] * 3)
        whites = colour_class(g, WHITE)
        assert independence_violations(g, whites) == []
        assert len(whites) == 3 == g.n // 2

    def test_weak_but_not_proper_triangle(self):
        g = ascending_ports(3, [(0, 1), (1, 2), (0, 2)],
                            colours=[BLACK, WHITE, WHITE])
        assert classify_colouring(g) is ColouringClass.WEAK
        assert independence_violations(g, colour_class(g, WHITE)) == [
            "edge (1, 2) lies inside the set"]

    @pytest.mark.parametrize("make", [
        lambda s: random_bipartite(14, 3 + s % 3, s),
        lambda s: random_weak(14, 3 + s % 3, s, oriented=False),
        lambda s: recoloured(random_bipartite(14, 3, s), s),
        lambda s: strong_blowup(numbered_cycle(6 + s % 5), 3),
        lambda s: weak_layered(numbered_cycle(4 + 2 * (s % 3)), 3 + 2 * (s % 2)),
    ], ids=["random-bipartite", "random-weak", "recoloured-bipartite",
            "strong-blowup", "weak-layered"])
    def test_proper_exactly_when_both_classes_are_independent(self, make):
        for seed in range(12):
            g = make(seed)
            independent = all(independence_violations(g, colour_class(g, c)) == []
                              for c in (BLACK, WHITE))
            assert independent == (classify_colouring(g) is ColouringClass.PROPER)


class TestRatioStress:
    def test_star_roots_on_blowup_family(self):
        # the adversarial family never pushes the ratio past (delta+1)/2
        from fractions import Fraction
        from localgraphs.starforest import star_dominating_set, star_forest
        for n, delta in ((6, 2), (8, 3), (12, 3), (16, 3), (12, 4)):
            g = strong_blowup(numbered_cycle(n), delta)
            roots = star_dominating_set(star_forest(g))
            optimum = brute_min_dominating_set(g)
            assert verify_solution(g, Solution(
                SolutionKind.DOMINATING_SET, roots)).ok
            assert Fraction(len(roots), len(optimum)) <= Fraction(delta + 1, 2)
            if n % (delta + 1) == 0:
                assert len(optimum) == 2 * n // (delta + 1)


class TestRandomFamilies:
    def test_bipartite_properties(self):
        for seed in range(30):
            g = random_bipartite(12, 4, seed)
            assert g.max_degree <= 4
            assert all(g.degree(v) >= 1 for v in g.nodes)
            assert classify_colouring(g) is ColouringClass.PROPER

    def test_weak_properties(self):
        for seed in range(30):
            g = random_weak(12, 4, seed)
            assert g.max_degree <= 4
            assert classify_colouring(g) >= ColouringClass.WEAK
            assert g.has_orientation

    def test_seed_determinism(self):
        assert random_weak(10, 3, 4) == random_weak(10, 3, 4)
        assert random_bipartite(10, 3, 4) == random_bipartite(10, 3, 4)
        assert random_weak(10, 3, 4) != random_weak(10, 3, 5)

    def test_shuffle_ports_keeps_edges(self, c4_coloured):
        g = shuffle_ports(c4_coloured, 9)
        assert g.edges == c4_coloured.edges
        assert g.colours == c4_coloured.colours

    def test_random_weak_colouring_valid(self):
        g = random_weak(14, 4, 2, oriented=False)
        for seed in range(10):
            colours = random_weak_colouring(g, seed)
            assert classify_colouring(with_colours(g, colours)) >= ColouringClass.WEAK


def _fill_cases():
    """(n, delta, colours, cover) covers as both random families draw them,
    plus dense covers that leave few valid pairs among many open nodes."""
    rng = random.Random(11)
    for _ in range(120):
        n, delta = rng.randrange(2, 40), rng.randrange(1, 6)
        if n % 2 == 0 or delta >= 2:
            yield n, delta, None, _pairing_cover(n, rng)
        lo = -(-n // (delta + 1))
        if lo > n - lo:
            continue
        blacks = set(rng.sample(range(n), rng.randint(lo, n - lo)))
        colours = [BLACK if v in blacks else WHITE for v in range(n)]
        whites = sorted(set(range(n)) - blacks)
        yield n, delta, colours, _bipartite_cover(sorted(blacks), whites, rng)
    for n in (40, 41):      # K_n minus a near-perfect matching, delta = n - 1
        cover = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if not (u % 2 == 0 and v == u + 1)}
        yield n, n - 1, None, cover


class TestFillRandomEdges:
    @pytest.mark.parametrize("max_misses", [generators._MAX_MISSES, 0])
    def test_properties_over_many_seeds(self, monkeypatch, max_misses):
        # max_misses = 0 sends every draw through the listed-pairs path
        monkeypatch.setattr(generators, "_MAX_MISSES", max_misses)
        for seed, (n, delta, colours, cover) in enumerate(_fill_cases()):
            rng = random.Random(seed)
            probe = random.Random()
            probe.setstate(rng.getstate())
            target = probe.randint(0, max(0, delta * n // 2 - len(cover)))
            edges = _fill_random_edges(n, delta, rng, colours, set(cover))
            assert edges == sorted(set(edges))
            assert cover <= set(edges)
            degree = [0] * n
            for u, v in edges:
                assert u < v
                assert colours is None or colours[u] != colours[v]
                degree[u] += 1
                degree[v] += 1
            assert max(degree) <= delta
            placed = len(edges) - len(cover)
            assert placed <= target
            if placed < target:     # short only when no valid pair is left
                chosen = set(edges)
                assert not any(
                    degree[u] < delta and degree[v] < delta and (u, v) not in chosen
                    and (colours is None or colours[u] != colours[v])
                    for u in range(n) for v in range(u + 1, n))

    def test_families_over_many_seeds(self):
        for seed in range(60):
            n, delta = 3 + seed % 23, 1 + seed % 5
            if n % 2 and delta == 1:
                for family in (random_bipartite, random_weak):
                    with pytest.raises(ValueError, match="without isolated nodes"):
                        family(n, delta, seed)
                continue
            g = random_bipartite(n, delta, seed)
            assert g.max_degree <= delta and g.n == n
            assert classify_colouring(g) is ColouringClass.PROPER
            assert random_bipartite(n, delta, seed) == g
            w = random_weak(n, delta, seed)
            assert w.max_degree <= delta and w.n == n
            assert classify_colouring(w) >= ColouringClass.WEAK
            assert random_weak(n, delta, seed) == w

    @pytest.mark.parametrize("family", [random_weak, random_bipartite])
    def test_large_instance_smoke(self, family):
        g = family(20_000, 3, 1)
        assert g.n == 20_000 and g.max_degree <= 3
        assert g.edge_count >= 10_000
