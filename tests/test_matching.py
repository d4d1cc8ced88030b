"""Matching scheme: phases, invocation schedule, guarantees, fidelity."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _corpus
from localgraphs import BLACK, WHITE, build_graph, disjoint_union, with_colours
from localgraphs.errors import (InvariantError, NotAugmentingError,
                                NotProperlyColouredError, PathsNotDisjointError,
                                RoundBudgetError, ShorterPathExistsError)
from localgraphs.generators import random_bipartite, strong_blowup, numbered_cycle
from localgraphs.engine import NodeView
from localgraphs.matching import (AugmentingForest, MatchingSchemeAlgorithm,
                                  SchemeStats, approximate_maximum_matching,
                                  augment_phase, check_round_budget,
                                  eliminate_length, flood_phase,
                                  invocation_count,
                                  proposal_phase, run_matching_scheme,
                                  scheme_round_budget)
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 shortest_augmenting_path_length,
                                 try_bipartition, verify_solution)

from conftest import ascending_ports, path_graph


def adversarial_p4():
    """Ports tuned so the first pass matches only the middle edge."""
    return build_graph(4, [(0, 1, 1, 2), (1, 2, 1, 1), (2, 3, 2, 1)],
                       [WHITE, BLACK, WHITE, BLACK])


def white_endpoints_of_length_h_paths(g, m, h):
    """Brute enumeration of augmenting-path endpoints on the white side."""
    partner = {}
    for u, v in m:
        partner[u] = v
        partner[v] = u
    ends = set()

    def extend(v, depth, want_matched, visited):
        for u in g.neighbours(v):
            if u in visited or (partner.get(v) == u) != want_matched:
                continue
            if depth + 1 == h:
                if u not in partner and g.colour(u) == WHITE:
                    ends.add(u)
            elif u in partner:
                visited.add(u)
                extend(u, depth + 1, not want_matched, visited)
                visited.remove(u)

    for b in g.nodes:
        if g.colour(b) == BLACK and b not in partner:
            extend(b, 0, False, {b})
    return ends


class TestFloodPhase:
    def test_unmatched_edge(self, single_edge):
        f = flood_phase(single_edge, frozenset(), 1)
        assert f.roots == {0} and f.leaves == {1}
        assert f.parent_port == {1: 1}

    def test_matched_edge_gives_empty_forest(self, single_edge):
        f = flood_phase(single_edge, {(0, 1)}, 1)
        assert not f.roots and not f.leaves

    def test_p4_length_three_chain(self, p4_coloured):
        f = flood_phase(p4_coloured, {(1, 2)}, 3)
        assert f.roots == {3} and f.leaves == {0}
        chain = {0: 1, 1: 2, 2: 2}   # port toward the parent at each node
        assert f.parent_port == chain

    def test_shorter_path_witness_raises(self, p4_coloured):
        with pytest.raises(ShorterPathExistsError):
            flood_phase(p4_coloured, frozenset(), 3)

    def test_oracle_precheck_flag(self, p4_coloured):
        with pytest.raises(ShorterPathExistsError):
            flood_phase(p4_coloured, frozenset(), 3, assert_no_shorter=True)

    def test_requires_proper_colouring(self):
        tri = ascending_ports(3, [(0, 1), (0, 2), (1, 2)],
                              colours=[BLACK, WHITE, WHITE])
        with pytest.raises(NotProperlyColouredError):
            flood_phase(tri, frozenset(), 1)

    def test_leaves_are_exactly_the_white_endpoints(self):
        for seed in range(40):
            g = random_bipartite(10, 3, seed)
            m = frozenset()
            h = 1
            f = flood_phase(g, m, h)
            assert f.leaves == white_endpoints_of_length_h_paths(g, m, h)

    def test_trees_disjoint_and_paths_alternate(self):
        for seed in range(40):
            g = random_bipartite(12, 4, seed)
            m = eliminate_length(g, frozenset(), 1)
            spl = shortest_augmenting_path_length(g, m)
            if spl is None:
                continue
            f = flood_phase(g, m, spl)
            assert f.leaves == white_endpoints_of_length_h_paths(g, m, spl)
            seen_by_tree = {}
            for leaf in f.leaves:
                root, length = _walk(g, f, leaf)
                assert length == spl
                for v in _chain(g, f, leaf):
                    assert seen_by_tree.setdefault(v, root) == root


def _chain(g, forest, leaf):
    v = leaf
    yield v
    while v in forest.parent_port:
        v = g.port_neighbour(v, forest.parent_port[v])
        yield v


def _walk(g, forest, leaf):
    nodes = list(_chain(g, forest, leaf))
    return nodes[-1], len(nodes) - 1


class TestProposalAndAugment:
    def test_single_leaf_path(self, p4_coloured):
        f = flood_phase(p4_coloured, {(1, 2)}, 3)
        paths = proposal_phase(p4_coloured, f)
        assert paths == ((3, 2, 1, 0),)

    def test_two_branches_lowest_port_wins(self):
        # star centre black, two white leaves; ports decide the survivor
        g = build_graph(3, [(0, 1, 2, 1), (0, 2, 1, 1)], [BLACK, WHITE, WHITE])
        f = flood_phase(g, frozenset(), 1)
        assert proposal_phase(g, f) == ((0, 2),)    # port 1 leads to node 2

    def test_empty_forest(self, single_edge):
        f = AugmentingForest(1, {}, frozenset(), frozenset())
        assert proposal_phase(single_edge, f) == ()

    def test_augment_single_edge(self, single_edge):
        m = augment_phase(single_edge, frozenset(), [(0, 1)])
        assert m == {(0, 1)}

    def test_augment_symmetric_difference(self, p4_coloured):
        m = augment_phase(p4_coloured, {(1, 2)}, [(0, 1, 2, 3)])
        assert m == {(0, 1), (2, 3)}

    def test_augment_empty_paths_identity(self, p4_coloured):
        assert augment_phase(p4_coloured, {(1, 2)}, []) == {(1, 2)}

    def test_overlapping_paths_rejected(self, p4_coloured):
        with pytest.raises(PathsNotDisjointError):
            augment_phase(p4_coloured, frozenset(), [(0, 1), (1, 2)])

    def test_non_alternating_rejected(self, p4_coloured):
        with pytest.raises(NotAugmentingError):
            augment_phase(p4_coloured, {(1, 2)}, [(1, 2)])
        with pytest.raises(NotAugmentingError):
            augment_phase(p4_coloured, frozenset(), [(0, 1, 2, 3)])


class TestEliminateLength:
    def test_invocation_formula(self):
        assert invocation_count(3, 2) == 6
        assert invocation_count(2, 1) == 2
        assert invocation_count(4, 3) == 36

    def test_p4_maximal_after_t1(self, p4_coloured):
        stats = SchemeStats()
        m = eliminate_length(p4_coloured, frozenset(), 1, stats=stats)
        assert stats.invocations == {1: 2}
        assert len(m) == 2
        assert shortest_augmenting_path_length(p4_coloured, m) is None
        assert stats.sizes[0] >= 1      # first invocation already matched

    def test_no_paths_means_no_change(self, p4_coloured):
        m = frozenset({(0, 1), (2, 3)})
        assert eliminate_length(p4_coloured, m, 2, assert_oracle=True) == m

    def test_validates_once_per_entry_point(self, monkeypatch):
        import localgraphs.matching as matching
        calls = {"validate_matching": 0, "classify_colouring": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(matching, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(matching, name, counted)
        g = random_bipartite(14, 3, 0)
        m = approximate_maximum_matching(g, 3)
        assert calls == {"validate_matching": 0, "classify_colouring": 1}
        assert eliminate_length(g, m, 2) == m
        assert calls == {"validate_matching": 1, "classify_colouring": 2}

    def test_monotone_and_valid_throughout(self):
        for seed in range(20):
            g = random_bipartite(14, 3, seed)
            stats = SchemeStats()
            m = approximate_maximum_matching(g, 2, stats=stats,
                                             assert_oracle=True)
            assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
            assert stats.sizes == sorted(stats.sizes)
            assert stats.invocations == {1: g.max_degree,
                                         2: invocation_count(g.max_degree, 2)}


def _idle_stop_instances():
    """Both polarities of every bipartite corpus graph on up to 8 nodes,
    then random_bipartite seeds 0-39 (n 6..40, degree bound 2..4)."""
    for n, pairs in _corpus.bipartite_graphs_with_unions(8):
        base = ascending_ports(n, pairs)
        side = try_bipartition(base)
        for flip in (False, True):
            yield with_colours(base, [BLACK if (s == 0) != flip else WHITE for s in side])
    for seed in range(40):
        n = 6 + seed % 35
        yield random_bipartite(n, min(2 + seed % 3, n - 1), seed)


class TestIdleStop:
    """The centralized scheme stops a path length at its first idle invocation."""

    def test_same_result_as_the_full_schedule(self):
        runs = 0
        for g in _idle_stop_instances():
            for k in (1, 2, 3):
                fast, full = SchemeStats(), SchemeStats()
                m = approximate_maximum_matching(g, k, stats=fast)
                assert m == approximate_maximum_matching(g, k, stats=full,
                                                         assert_oracle=True)
                assert fast == full
                runs += 1
        assert runs == 3 * (2 * 302 + 40)

    def test_floods_once_past_the_last_augmenting_invocation(self, monkeypatch):
        import localgraphs.matching as matching
        floods = {}

        def counted(g, partner, h, _flood=matching._flood):
            i = (h + 1) // 2
            floods[i] = floods.get(i, 0) + 1
            return _flood(g, partner, h)

        monkeypatch.setattr(matching, "_flood", counted)
        skipped = 0
        for seed in range(40):
            g = random_bipartite(6 + seed % 35, 2 + seed % 3, seed)
            k = 1 + seed % 3
            for assert_oracle in (False, True):
                floods.clear()
                stats = SchemeStats()
                approximate_maximum_matching(g, k, stats=stats,
                                             assert_oracle=assert_oracle)
                t = {i: invocation_count(g.max_degree, i) for i in range(1, k + 1)}
                assert stats.invocations == t
                if assert_oracle:
                    assert floods == t
                    continue
                found = stats.augmentations
                for i in range(1, k + 1):
                    start = sum(t[j] for j in range(1, i))
                    useful = sum(1 for paths in found[start:start + t[i]] if paths)
                    assert floods[i] == min(t[i], useful + 1)
                    skipped += t[i] - floods[i]
        assert skipped > 0

    def test_bad_paths_from_the_proposal_phase_are_internal(self, monkeypatch, p4_coloured):
        import localgraphs.matching as matching
        for bad in ([(0, 1), (1, 2)], [(0, 2)]):      # overlapping; not an edge
            monkeypatch.setattr(matching, "proposal_phase", lambda g, forest: bad)
            with pytest.raises(InvariantError) as info:
                approximate_maximum_matching(p4_coloured, 1)
            assert isinstance(info.value.__cause__,
                              (NotAugmentingError, PathsNotDisjointError))


class TestApproximateMatching:
    def test_p4_one_pass_is_maximum(self, p4_coloured):
        m = approximate_maximum_matching(p4_coloured, 1)
        assert m == {(0, 1), (2, 3)}

    def test_adversarial_ports_then_second_pass(self):
        g = adversarial_p4()
        first = approximate_maximum_matching(g, 1)
        assert first == {(1, 2)}
        second = approximate_maximum_matching(g, 2)
        assert len(second) == 2 == len(brute_max_matching(g))

    def test_half_guarantee(self):
        for seed in range(25):
            g = random_bipartite(16, 4, seed)
            m = approximate_maximum_matching(g, 1)
            best = len(brute_max_matching(g))
            assert len(m) >= math.ceil(Fraction(1, 2) * best)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 20), st.integers(2, 4), st.integers(0, 10 ** 6),
           st.integers(1, 3))
    def test_no_short_paths_survive(self, n, delta, seed, k):
        g = random_bipartite(n, delta, seed)
        m = approximate_maximum_matching(g, k)
        spl = shortest_augmenting_path_length(g, m)
        assert spl is None or spl > 2 * k - 1
        best = len(brute_max_matching(g))
        assert len(m) >= math.ceil(Fraction(k, k + 1) * best)

    def test_requires_proper(self):
        tri = ascending_ports(3, [(0, 1), (0, 2), (1, 2)],
                              colours=[BLACK, WHITE, WHITE])
        with pytest.raises(NotProperlyColouredError):
            approximate_maximum_matching(tri, 1)


class TestSimulatedScheme:
    def test_matches_centralized_on_fixtures(self, p4_coloured):
        for g in (p4_coloured, adversarial_p4(), path_graph("bw")):
            for k in (1, 2, 3):
                simulated, result = run_matching_scheme(g, k)
                assert simulated == approximate_maximum_matching(g, k)
                assert result.rounds_used == scheme_round_budget(g.max_degree, k)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 16), st.integers(2, 4), st.integers(0, 10 ** 6),
           st.integers(1, 2))
    def test_matches_centralized_random(self, n, delta, seed, k):
        g = random_bipartite(n, delta, seed)
        simulated, _ = run_matching_scheme(g, k)
        assert simulated == approximate_maximum_matching(g, k)

    def test_rounds_and_bits_independent_of_size(self):
        small = strong_blowup(numbered_cycle(8), 3)
        large = strong_blowup(numbered_cycle(16), 3)
        r_small = run_matching_scheme(small, 2)[1]
        r_large = run_matching_scheme(large, 2)[1]
        assert r_small.rounds_used == r_large.rounds_used
        assert r_small.max_message_bits == r_large.max_message_bits == 8

    def test_per_copy_agreement_on_union(self, p4_coloured):
        doubled = disjoint_union(p4_coloured, p4_coloured)
        single, _ = run_matching_scheme(p4_coloured, 2)
        both, _ = run_matching_scheme(doubled, 2)
        shifted = {(u + 4, v + 4) for u, v in single}
        assert both == single | shifted

    def test_library_refuses_budget_before_allocating(self):
        g = strong_blowup(numbered_cycle(8), 3)     # k = 20 needs about 3.5e8 rounds
        lines = []
        with pytest.raises(RoundBudgetError):
            run_matching_scheme(g, 20, trace=lines.append)
        assert lines == []
        check_round_budget(3, 12)
        for delta, k in ((3, 13), (1000, 10**6), (2, 10**6 + 1)):
            with pytest.raises(RoundBudgetError):
                check_round_budget(delta, k)

    def test_round_budget_closed_form(self):
        """One node steps through its whole budget; its (h, rho) must follow
        t_i invocations of 3h rounds for each h = 2i-1."""
        for delta in range(0, 7):
            for k in range(1, 7):
                reference = [(2 * i - 1, rho)
                             for i in range(1, k + 1)
                             for _ in range(invocation_count(delta, i))
                             for rho in range(1, 3 * (2 * i - 1) + 1)]
                assert scheme_round_budget(delta, k) == len(reference)
                alg = MatchingSchemeAlgorithm(k)
                state, _ = alg.init(NodeView(degree=delta, max_degree=delta, colour=WHITE))
                positions = []
                for _ in range(alg.round_budget(delta)):
                    state, _ = alg.step(state, {})
                    positions.append((state["h"], state["rho"]))
                assert positions == reference
        with pytest.raises(ValueError):
            scheme_round_budget(3, 0)

    @pytest.mark.parametrize("colour", [BLACK, WHITE])
    @pytest.mark.parametrize("matched_port", [None, 2])
    def test_silent_round_changes_only_the_round(self, colour, matched_port):
        alg = MatchingSchemeAlgorithm(2)
        state, _ = alg.init(NodeView(degree=3, max_degree=3, colour=colour))
        state["matched_port"] = matched_port
        budget = alg.round_budget(3)
        silent = floods = 0
        for r in range(1, budget + 1):
            before = dict(state)
            state, sends = alg.step(state, {})
            h, rho = state["h"], state["rho"]
            if rho in (1, 3 * h):
                # only an unmatched black wakes the next invocation, and not
                # in the last round
                if rho == 3 * h and colour == BLACK and matched_port is None and r < budget:
                    assert sends == {1: b"\x01", 2: b"\x01", 3: b"\x01"}
                    floods += 1
                else:
                    assert sends == {}
                continue
            silent += 1
            assert sends == {}
            assert list(state) == list(before)
            assert state == {**before, "rho": before["rho"] + 1}
        assert silent == 3 * 1 + 6 * 7     # t_1 = 3 with rho = 2; t_2 = 6 with rho = 2..8
        assert floods == (3 + 6 - 1 if colour == BLACK and matched_port is None else 0)

