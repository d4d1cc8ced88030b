"""Star forest: hand-derived cases, partition invariants, oracle bounds."""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgraphs import BLACK, WHITE, with_colours
from localgraphs.errors import CapabilityError, MalformedSolutionError
from localgraphs.generators import (numbered_cycle, random_weak,
                                    random_weak_colouring, shuffle_ports)
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 brute_min_dominating_set, verify_solution)
from localgraphs.starforest import (StarForest, _check_star_forest,
                                    build_parent_forest, normalize_stars,
                                    run_star_forest, star_dominating_set,
                                    star_forest, star_matching)

import _corpus
from conftest import ascending_ports


class TestBuildParentForest:
    def test_single_edge(self, single_edge):
        f = build_parent_forest(single_edge)
        assert f == {0: 1}          # black points at white
        assert single_edge.port_neighbour(0, f[0]) == 1

    def test_p3_lowest_port_tie_break(self, p3_wbw):
        f = build_parent_forest(p3_wbw)
        # black 1 takes port 1 (toward w1=0); childless white 2 points back
        assert f == {1: 1, 2: 1}
        assert p3_wbw.port_neighbour(1, f[1]) == 0
        assert p3_wbw.port_neighbour(2, f[2]) == 1

    def test_triangle(self):
        tri = ascending_ports(3, [(0, 1), (0, 2), (1, 2)],
                              colours=[BLACK, WHITE, WHITE])
        f = build_parent_forest(tri)
        assert f == {0: 1, 2: 1}    # depth-2 tree rooted at node 1

    def test_rejects_unweak(self):
        www = ascending_ports(3, [(0, 1), (1, 2)],
                              colours=[WHITE, WHITE, WHITE])
        with pytest.raises(CapabilityError, match="needs a weak 2-colouring"):
            build_parent_forest(www)


class TestNormalizeStars:
    def test_depth_one_unchanged(self, single_edge):
        sf = star_forest(single_edge)
        assert sf.stars == {1: frozenset({0})}

    def test_p3_case_three_reversal(self, p3_wbw):
        sf = star_forest(p3_wbw)
        assert sf.stars == {1: frozenset({0, 2})}

    def test_case_two_detaches_branch(self):
        # root 0 (white) with leaf child 1 and non-leaf child 2 -> {0:{1}}, {2:{3}}
        g = ascending_ports(4, [(0, 1), (0, 2), (2, 3)],
                            colours=[WHITE, BLACK, BLACK, WHITE])
        f = build_parent_forest(g)
        assert f == {1: 1, 2: 1, 3: 1}
        sf = normalize_stars(g, f)
        assert sf.stars == {0: frozenset({1}), 2: frozenset({3})}

    def test_cycle_detected(self, single_edge):
        with pytest.raises(MalformedSolutionError, match="parent cycle at node"):
            normalize_stars(single_edge, {0: 1, 1: 1})

    def test_depth_three_detected(self):
        g = ascending_ports(4, [(0, 1), (1, 2), (2, 3)],
                            colours=[WHITE, BLACK, WHITE, BLACK])
        bad = {3: 1, 2: 2, 1: 2}   # chain 3 -> 2 -> 1 -> 0
        with pytest.raises(MalformedSolutionError, match="sits at depth > 2"):
            normalize_stars(g, bad)

    def test_parentless_childless_detected(self, c4_coloured):
        with pytest.raises(MalformedSolutionError, match="has no children"):
            normalize_stars(c4_coloured, {})

    @pytest.mark.parametrize("port", [1.0, "a", True])
    def test_a_port_that_is_not_an_int_is_refused(self, port):
        with pytest.raises(MalformedSolutionError, match=rf"^node 0 has ports 1\.\.2, got {port}$"):
            normalize_stars(numbered_cycle(6).graph, {0: port, 2: 1, 4: 1})

    def test_every_accepted_parent_map_is_a_star_forest(self):
        # normalize_stars does not check its result: its four refusals must
        # leave nothing but star forests
        rng = random.Random(2024)
        outcomes = Counter()
        for _ in range(3000):
            g = random_weak(rng.randint(2, 10), rng.randint(2, 4), rng.randrange(10**6))
            parent = {}
            for v in g.nodes:
                r = rng.random()
                if r >= 0.45:
                    parent[v] = rng.randint(1, g.degree(v))
                elif r >= 0.4:      # a port that may be out of range
                    parent[v] = rng.randint(0, g.degree(v) + 1)
            try:
                sf = normalize_stars(g, parent)
            except MalformedSolutionError as exc:
                outcomes[re.sub(r"\d+", "#", str(exc))] += 1
            else:
                _check_star_forest(g, sf.stars)
                outcomes["accepted"] += 1
        assert set(outcomes) == {"accepted", "node # has ports #..#, got #",
                                 "parent cycle at node #", "node # sits at depth > #",
                                 "parentless node # has no children"}


class TestExtraction:
    def test_single_edge_sets(self, single_edge):
        sf = star_forest(single_edge)
        ds = star_dominating_set(sf)
        assert len(ds) == 1 == len(brute_min_dominating_set(single_edge))
        assert star_matching(single_edge, sf) == {(0, 1)}

    @pytest.mark.parametrize("stars", [{0: frozenset({1, 3})}, {0: frozenset({3})}],
                             ids=["non-adjacent-leaf", "no-adjacent-leaf"])
    def test_star_matching_refuses_a_malformed_forest(self, stars):
        with pytest.raises(MalformedSolutionError):
            star_matching(numbered_cycle(6).graph, StarForest(stars))

    @pytest.mark.parametrize("stars, message", [
        ({0: 5}, "star at 0 has leaves 5, not a node set"),
        ({0: frozenset({1, 5}), 2: frozenset({3}), 4: [3, [5]]}, r"leaf \[5\] not adjacent to root 4"),
        ({0: frozenset({1, 5}), 2: frozenset({1.0, 3})}, r"leaf 1\.0 not adjacent to root 2"),
    ], ids=["int-leaves", "unorderable-leaf", "float-leaf"])
    def test_star_matching_refuses_leaves_that_are_not_neighbour_ids(self, stars, message):
        with pytest.raises(MalformedSolutionError, match=f"^{message}$"):
            star_matching(numbered_cycle(6).graph, StarForest(stars))

    @pytest.mark.parametrize("stars, message", [
        ({1: frozenset({0, 2}), 4: frozenset({3, 5}), 2: frozenset({3})}, "stars overlap"),
        ({1: frozenset({0, 2}), 4: frozenset({3})}, "stars do not cover every node"),
    ], ids=["overlap", "uncovered"])
    def test_star_matching_refuses_stars_that_do_not_partition(self, stars, message):
        with pytest.raises(MalformedSolutionError, match=f"^{message}$"):
            star_matching(numbered_cycle(6).graph, StarForest(stars))

    def test_p3_dominating_set_optimal(self, p3_wbw):
        ds = star_dominating_set(star_forest(p3_wbw))
        assert ds == {1}
        assert len(ds) == len(brute_min_dominating_set(p3_wbw))

    def test_c4_two_roots(self, c4_coloured):
        ds = star_dominating_set(star_forest(c4_coloured))
        assert len(ds) == 2 == len(brute_min_dominating_set(c4_coloured))

    def test_star_matching_k13(self):
        g = ascending_ports(4, [(0, 1), (0, 2), (0, 3)],
                            colours=[BLACK, WHITE, WHITE, WHITE])
        sf = star_forest(g)
        m = star_matching(g, sf)
        assert len(m) == 1 == len(brute_max_matching(g))

    def test_c6_matching_bounds(self):
        g = ascending_ports(6, [(i, (i + 1) % 6) for i in range(6)],
                            colours=[BLACK, WHITE] * 3)
        sf = star_forest(g)
        m = star_matching(g, sf)
        assert len(m) >= 2                                   # ceil(n / (delta+1))
        best = len(brute_max_matching(g))
        assert Fraction(best, len(m)) <= Fraction(2 + 1, 2)  # delta = 2


def _check_star_invariants(g, sf: StarForest):
    seen = set()
    for root, leaves in sf.stars.items():
        assert leaves, "every star keeps at least one leaf"
        members = {root, *leaves}
        assert not (members & seen)
        seen |= members
        for leaf in leaves:
            assert tuple(sorted((root, leaf))) in g.edges
    assert seen == set(g.nodes)
    assert 2 * len(sf.stars) <= g.n


def _check_bounds(g, sf: StarForest):
    delta = g.max_degree
    ds = star_dominating_set(sf)
    assert verify_solution(g, Solution(SolutionKind.DOMINATING_SET, ds)).ok
    assert len(ds) <= g.n // 2
    optimum = brute_min_dominating_set(g)
    assert Fraction(len(ds), len(optimum)) <= Fraction(delta + 1, 2)

    m = star_matching(g, sf)
    assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
    assert len(m) * (delta + 1) >= g.n
    best = brute_max_matching(g)
    assert Fraction(len(best), len(m)) <= Fraction(delta + 1, 2)


class TestInvariants:
    def test_exhaustive_small(self):
        for n, edges in _corpus.connected_graphs(max_n=6):
            base = ascending_ports(n, edges)
            for colour_seed in range(2):
                colours = random_weak_colouring(base, colour_seed)
                g = with_colours(base, colours)
                sf = star_forest(g)
                _check_star_invariants(g, sf)
                _check_bounds(g, sf)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 16), st.integers(2, 5), st.integers(0, 10 ** 6))
    def test_random_graphs(self, n, delta, seed):
        g = random_weak(n, delta, seed, oriented=False)
        sf = star_forest(g)
        _check_star_invariants(g, sf)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 14), st.integers(2, 4), st.integers(0, 10 ** 6))
    def test_distributed_matches_centralized(self, n, delta, seed):
        g = random_weak(n, delta, seed, oriented=False)
        simulated, result = run_star_forest(g)
        assert simulated == star_forest(g)
        assert result.rounds_used == 5
        assert result.max_message_bits == 8

    def test_distributed_refuses_unweak_before_round_0(self, c4_coloured):
        lines = []
        with pytest.raises(CapabilityError, match="needs a weak 2-colouring"):
            run_star_forest(with_colours(c4_coloured, [BLACK] * 4), trace=lines.append)
        assert lines == []

    def test_distributed_matches_on_port_shuffles(self, c4_coloured):
        for seed in range(6):
            g = shuffle_ports(c4_coloured, seed)
            simulated, _ = run_star_forest(g)
            assert simulated == star_forest(g)

    def test_distributed_matched_ports_agree(self):
        for seed in range(10):
            g = random_weak(12, 4, seed, oriented=False)
            sf, result = run_star_forest(g)
            central = star_matching(g, sf)
            simulated = set()
            for v, out in result.outputs.items():
                if out["parent_port"] is None:
                    u = g.port_neighbour(v, out["matched_port"])
                    simulated.add(tuple(sorted((v, u))))
            assert simulated == set(central)
