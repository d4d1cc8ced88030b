"""Star forest: hand-derived cases, partition invariants, oracle bounds."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgraphs import BLACK, WHITE, with_colours
from localgraphs.errors import MalformedForestError, NotWeaklyColouredError
from localgraphs.generators import (random_weak, random_weak_colouring,
                                    shuffle_ports)
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 brute_min_dominating_set, verify_solution)
from localgraphs.starforest import (RootedForest, StarForest,
                                    build_parent_forest, normalize_stars,
                                    run_star_forest, star_dominating_set,
                                    star_forest, star_matching)

import _corpus
from conftest import ascending_ports


class TestBuildParentForest:
    def test_single_edge(self, single_edge):
        f = build_parent_forest(single_edge)
        assert f.parent_port == {0: 1}          # black points at white
        assert f.parent_of(single_edge, 0) == 1

    def test_p3_lowest_port_tie_break(self, p3_wbw):
        f = build_parent_forest(p3_wbw)
        # black 1 takes port 1 (toward w1=0); childless white 2 points back
        assert f.parent_port == {1: 1, 2: 1}
        assert f.parent_of(p3_wbw, 1) == 0
        assert f.parent_of(p3_wbw, 2) == 1

    def test_triangle(self):
        tri = ascending_ports(3, [(0, 1), (0, 2), (1, 2)],
                              colours=[BLACK, WHITE, WHITE])
        f = build_parent_forest(tri)
        assert f.parent_port == {0: 1, 2: 1}    # depth-2 tree rooted at node 1

    def test_rejects_unweak(self):
        www = ascending_ports(3, [(0, 1), (1, 2)],
                              colours=[WHITE, WHITE, WHITE])
        with pytest.raises(NotWeaklyColouredError):
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
        assert f.parent_port == {1: 1, 2: 1, 3: 1}
        sf = normalize_stars(g, f)
        assert sf.stars == {0: frozenset({1}), 2: frozenset({3})}

    def test_cycle_detected(self, single_edge):
        with pytest.raises(MalformedForestError):
            normalize_stars(single_edge, RootedForest({0: 1, 1: 1}))

    def test_depth_three_detected(self):
        g = ascending_ports(4, [(0, 1), (1, 2), (2, 3)],
                            colours=[WHITE, BLACK, WHITE, BLACK])
        bad = RootedForest({3: 1, 2: 2, 1: 2})   # chain 3 -> 2 -> 1 -> 0
        with pytest.raises(MalformedForestError):
            normalize_stars(g, bad)

    def test_parentless_childless_detected(self, c4_coloured):
        with pytest.raises(MalformedForestError):
            normalize_stars(c4_coloured, RootedForest({}))


class TestExtraction:
    def test_single_edge_sets(self, single_edge):
        sf = star_forest(single_edge)
        ds = star_dominating_set(sf)
        assert len(ds) == 1 == len(brute_min_dominating_set(single_edge))
        assert star_matching(single_edge, sf) == {(0, 1)}

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
        with pytest.raises(NotWeaklyColouredError):
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
