"""Matching scheme: phases, invocation schedule, guarantees, fidelity."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _corpus
from localgraphs import BLACK, WHITE, build_graph, disjoint_union, with_colours
from localgraphs.errors import (CapabilityError, InvariantError, MalformedSolutionError,
                                TooLargeError)
from localgraphs.generators import random_bipartite, strong_blowup, numbered_cycle
from localgraphs.engine import NodeView, run_local_algorithm
from localgraphs.matching import (AugmentingForest, MatchingSchemeAlgorithm,
                                  SchemeStats, approximate_maximum_matching,
                                  augment_phase, eliminate_length, flood_phase,
                                  invocation_count, matching_from_outputs,
                                  proposal_phase, run_matching_scheme,
                                  scheme_round_budget, _augment, _flood, _position,
                                  _round_facts)
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 shortest_augmenting_path_length,
                                 try_bipartition, verify_solution)

from conftest import ascending_ports, greedy_random_matching, path_graph


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

    @pytest.mark.parametrize("h", [0, -1, 2])
    def test_refuses_a_length_that_is_not_positive_and_odd(self, single_edge, h):
        with pytest.raises(ValueError, match=f"positive odd number, got {h}$"):
            flood_phase(single_edge, frozenset(), h)

    def test_shorter_path_witness_raises(self, p4_coloured):
        with pytest.raises(InvariantError, match="unmatched white node after 1 < 3 hops"):
            flood_phase(p4_coloured, frozenset(), 3)

    def test_flood_is_an_exact_detector(self):
        # the flood raises exactly when a shorter augmenting path exists
        lengths = set()
        for n in (6, 10, 16, 30):
            for delta in (2, 3, 4):
                for seed in range(60):
                    g = random_bipartite(n, delta, seed)
                    m = greedy_random_matching(g, random.Random(seed), keep=0.9)
                    spl = shortest_augmenting_path_length(g, m)
                    lengths.add(spl)
                    for h in (1, 3, 5, 7, 9):
                        shorter = spl is not None and spl < h
                        try:
                            flood_phase(g, m, h)
                        except InvariantError as exc:
                            assert shorter, (n, delta, seed, h)
                            assert "unmatched white node after" in str(exc)
                        else:
                            assert not shorter, (n, delta, seed, h)
        assert {1, 3, 5, 7, None} <= lengths

    def test_requires_proper_colouring(self):
        tri = ascending_ports(3, [(0, 1), (0, 2), (1, 2)],
                              colours=[BLACK, WHITE, WHITE])
        with pytest.raises(CapabilityError, match="needs a proper 2-colouring"):
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

    def test_parent_cycle_refused(self):
        # every parent port leads around the cycle, and no leaf is a node
        g = numbered_cycle(4).graph
        f = AugmentingForest(3, {0: 2, 1: 2, 2: 2, 3: 2}, frozenset({0}), frozenset({99}))
        with pytest.raises(MalformedSolutionError, match="root-leaf path of 3 edges"):
            proposal_phase(g, f)

    def test_root_without_children_refused(self):
        f = AugmentingForest(3, {}, frozenset({0}), frozenset({3}))
        with pytest.raises(MalformedSolutionError, match="root-leaf path of 3 edges"):
            proposal_phase(path_graph("bwbw"), f)

    def test_augment_single_edge(self, single_edge):
        m = augment_phase(single_edge, frozenset(), [(0, 1)])
        assert m == {(0, 1)}

    def test_augment_symmetric_difference(self, p4_coloured):
        m = augment_phase(p4_coloured, {(1, 2)}, [(0, 1, 2, 3)])
        assert m == {(0, 1), (2, 3)}

    def test_augment_empty_paths_identity(self, p4_coloured):
        assert augment_phase(p4_coloured, {(1, 2)}, []) == {(1, 2)}

    def test_overlapping_paths_rejected(self, p4_coloured):
        with pytest.raises(MalformedSolutionError, match="overlaps another path"):
            augment_phase(p4_coloured, frozenset(), [(0, 1), (1, 2)])

    def test_non_alternating_rejected(self, p4_coloured):
        with pytest.raises(MalformedSolutionError, match="does not join unmatched endpoints"):
            augment_phase(p4_coloured, {(1, 2)}, [(1, 2)])
        with pytest.raises(MalformedSolutionError, match="does not alternate at"):
            augment_phase(p4_coloured, frozenset(), [(0, 1, 2, 3)])

    def test_repeated_node_and_even_edge_count_rejected(self, p4_coloured):
        with pytest.raises(MalformedSolutionError, match="repeats a node"):
            augment_phase(p4_coloured, frozenset(), [(0, 1, 0, 1)])
        with pytest.raises(MalformedSolutionError, match="even edge count"):
            augment_phase(p4_coloured, frozenset(), [(0, 1, 2)])

    @pytest.mark.parametrize("path", [(0, 1.0), (0.0, 1), (0, True)])
    def test_augment_refuses_a_value_equal_to_a_node_id(self, single_edge, path):
        """A float or a bool that equals a node id is not that node, as in
        ``validate_matching`` and ``verify_solution``."""
        with pytest.raises(MalformedSolutionError, match="is not an edge"):
            augment_phase(single_edge, frozenset(), [path])


class TestPlantedFaults:
    """Each InvariantError of the scheme, reached through a fault planted
    in what the checked code trusts."""

    def test_flood_reaching_a_black_node_over_two_edges(self):
        # b w b w b: both whites name node 2 as their partner
        with pytest.raises(InvariantError, match=r"^flood reached black node 2 other than "
                                                 r"over one matched edge$"):
            _flood(path_graph("bwbwb"), {1: 2, 2: 1, 3: 2}, 3)

    def test_augmentation_that_does_not_grow_the_matching(self, p4_coloured):
        partner = {1: 2}    # node 2 does not name node 1 back
        with pytest.raises(InvariantError, match=r"^augmentation did not grow the matching "
                                                 r"by one edge per path$"):
            _augment(p4_coloured, partner, [(0, 1, 2, 3)])

    def test_oracle_finding_a_shorter_path_after_an_invocation(self, monkeypatch,
                                                                p4_coloured):
        monkeypatch.setattr("localgraphs.matching._augmenting_distance",
                            lambda g, partner, side: 1)
        with pytest.raises(InvariantError,
                           match=r"^invocation left an augmenting path of length 1 < 3$"):
            eliminate_length(p4_coloured, {(1, 2)}, 2, assert_oracle=True)

    def test_oracle_finding_a_path_that_survived(self, monkeypatch, p4_coloured):
        monkeypatch.setattr("localgraphs.matching._augmenting_distance",
                            lambda g, partner, side: 1)
        with pytest.raises(InvariantError,
                           match=r"^length-1 augmenting path survived elimination at h=1$"):
            eliminate_length(p4_coloured, frozenset(), 1, assert_oracle=True)

    def test_step_flood_reaching_an_unmatched_white_early(self):
        alg = MatchingSchemeAlgorithm(2)
        state, _, _ = alg.init(NodeView(degree=2, max_degree=2, colour=WHITE))
        assert _position(2, 2, 7) == (3, 1, 2)      # hop 1 of the first h = 3 invocation
        with pytest.raises(InvariantError, match=r"^flood reached an unmatched white node "
                                                 r"after 1 < 3 hops$"):
            alg.step(state, {1: b"\x01"}, 7)

    def test_step_flood_reaching_an_unmatched_black(self):
        alg = MatchingSchemeAlgorithm(2)
        state, _, _ = alg.init(NodeView(degree=2, max_degree=2, colour=BLACK))
        # in invocation 2 already, but not the root an unmatched black would be
        state.update(invocation=2, joined=False, parent_port=None, depth=None,
                     chosen_child_port=None)
        with pytest.raises(InvariantError, match=r"^flood reached an unmatched black node; "
                                                 r"floods reach blacks only over matched "
                                                 r"edges$"):
            alg.step(state, {1: b"\x01"}, 7)


class TestEliminateLength:
    def test_invocation_formula(self):
        assert invocation_count(3, 2) == 6
        assert invocation_count(2, 1) == 2
        assert invocation_count(4, 3) == 36

    def test_path_index_below_1_refused(self, p4_coloured):
        with pytest.raises(ValueError):
            invocation_count(3, 0)
        for i in (0, -1):
            with pytest.raises(ValueError):
                eliminate_length(p4_coloured, frozenset(), i)

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
        import localgraphs.engine as engine
        import localgraphs.matching as matching
        calls = {"validate_matching": 0, "classify_colouring": 0}
        for module, name in ((matching, "validate_matching"), (engine, "classify_colouring")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
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


def full_schedule(g, k):
    """The centralized scheme with every one of the t_i invocations run."""
    partner, stats = {}, SchemeStats()
    for i in range(1, k + 1):
        h = 2 * i - 1
        for _ in range(invocation_count(g.max_degree, i)):
            paths = proposal_phase(g, _flood(g, partner, h))
            _augment(g, partner, paths)
            stats.record(i, len(paths), len(partner) // 2)
    return frozenset((u, v) for u, v in partner.items() if u < v), stats


class TestIdleStop:
    """The centralized scheme stops a path length at its first idle invocation."""

    def test_same_result_as_the_full_schedule(self):
        runs = 0
        for g in _idle_stop_instances():
            for k in (1, 2, 3):
                full = full_schedule(g, k)
                for assert_oracle in (False, True):
                    stats = SchemeStats()
                    m = approximate_maximum_matching(g, k, stats=stats,
                                                     assert_oracle=assert_oracle)
                    assert (m, stats) == full
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
                found = stats.augmentations
                for i in range(1, k + 1):
                    start = sum(t[j] for j in range(1, i))
                    useful = sum(1 for paths in found[start:start + t[i]] if paths)
                    assert floods[i] == min(t[i], useful + 1)
                    skipped += t[i] - floods[i]
        assert skipped > 0

    def test_malformed_forest_from_the_flood_phase_is_internal(self, monkeypatch,
                                                               p4_coloured):
        import localgraphs.matching as matching
        forest = AugmentingForest(1, {}, frozenset({1}), frozenset())
        monkeypatch.setattr(matching, "_flood", lambda g, partner, h: forest)
        with pytest.raises(InvariantError) as info:
            approximate_maximum_matching(p4_coloured, 1)
        assert isinstance(info.value.__cause__, MalformedSolutionError)
        assert "root-leaf path of 1 edges" in str(info.value.__cause__)

    def test_bad_paths_from_the_proposal_phase_are_internal(self, monkeypatch, p4_coloured):
        import localgraphs.matching as matching
        for bad, fragment in (([(0, 1), (1, 2)], "overlaps another path"),
                              ([(0, 2)], "is not an edge")):
            monkeypatch.setattr(matching, "proposal_phase", lambda g, forest: bad)
            with pytest.raises(InvariantError) as info:
                approximate_maximum_matching(p4_coloured, 1)
            assert isinstance(info.value.__cause__, MalformedSolutionError)
            assert fragment in str(info.value.__cause__)


def test_assert_oracle_searches_once_per_distinct_matching(monkeypatch):
    """With ``assert_oracle``, each path length runs the oracle's search
    after its first invocation and after each later one that augmented a
    path; the final check reuses the last answer, or is the only search
    when t_i = 0."""
    import localgraphs.matching as matching
    lengths: list[int] = []         # the path index i of each _eliminate call
    searches: dict[int, int] = {}

    def eliminate(g, partner, i, *rest, _eliminate=matching._eliminate):
        lengths.append(i)
        return _eliminate(g, partner, i, *rest)

    def search(g, partner, side, _search=matching._augmenting_distance):
        searches[lengths[-1]] = searches.get(lengths[-1], 0) + 1
        return _search(g, partner, side)

    monkeypatch.setattr(matching, "_eliminate", eliminate)
    monkeypatch.setattr(matching, "_augmenting_distance", search)
    saved = idle_lengths = 0
    for g in _idle_stop_instances():
        for k in (1, 2, 3):
            lengths.clear()
            searches.clear()
            stats = SchemeStats()
            approximate_maximum_matching(g, k, stats=stats, assert_oracle=True)
            start = 0
            for i in range(1, k + 1):
                t = invocation_count(g.max_degree, i)
                later = stats.augmentations[start + 1:start + t]
                assert searches[i] == 1 + sum(1 for paths in later if paths)
                saved += t + 1 - searches[i]
                idle_lengths += t == 0
                start += t
    assert saved > 0 and idle_lengths > 0


def test_assert_oracle_bipartitions_once_per_call(monkeypatch):
    """One bipartition search per scheme or elimination call, whatever k;
    none without ``assert_oracle``."""
    import localgraphs.matching as matching
    calls = []

    def bipartition(g, _search=matching.try_bipartition):
        calls.append(g)
        return _search(g)

    monkeypatch.setattr(matching, "try_bipartition", bipartition)
    g = random_bipartite(40, 3, 0)
    for k in (1, 2, 3):
        calls.clear()
        m = approximate_maximum_matching(g, k, assert_oracle=True)
        assert calls == [g]
        calls.clear()
        eliminate_length(g, m, k + 1, assert_oracle=True)
        assert calls == [g]
    calls.clear()
    approximate_maximum_matching(g, 3)
    eliminate_length(g, frozenset(), 1)
    assert calls == []


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
        with pytest.raises(CapabilityError, match="needs a proper 2-colouring"):
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

    def test_outputs_missing_the_far_end_are_malformed(self):
        g = numbered_cycle(6).graph
        with pytest.raises(MalformedSolutionError, match="nodes 0 and 1 disagree"):
            matching_from_outputs(g, {0: {"matched_port": 1}})

    def test_library_refuses_budget_before_allocating(self):
        g = strong_blowup(numbered_cycle(8), 3)     # k = 20 needs about 3.5e8 rounds
        lines = []
        with pytest.raises(TooLargeError, match="needs more than 1000000 rounds"):
            run_matching_scheme(g, 20, trace=lines.append)
        assert lines == []
        scheme_round_budget(3, 12)
        for delta, k in ((3, 13), (1000, 10**6), (2, 10**6 + 1), (1, 10**6 + 1)):
            with pytest.raises(TooLargeError, match="needs more than 1000000 rounds"):
                scheme_round_budget(delta, k)

    def test_round_budget_closed_form(self):
        """At every round of the budget the schedule lookup gives (h, rho,
        invocation) of t_i invocations of 3h rounds for each h = 2i-1; the
        wake-up flood is due at rho = 3h of every invocation but the last,
        and the wake of rounds 0..budget is the next such round."""
        for delta in range(0, 7):
            for k in range(1, 7):
                lengths = [2 * i - 1 for i in range(1, k + 1)
                           for _ in range(invocation_count(delta, i))]
                reference = [(h, rho, invocation) for invocation, h in enumerate(lengths)
                             for rho in range(1, 3 * h + 1)]
                budget = len(reference)
                assert scheme_round_budget(delta, k) == budget
                assert [_position(delta, k, r) for r in range(1, budget + 1)] == reference
                floods = {r for r, (h, rho, invocation) in enumerate(reference, start=1)
                          if rho == 3 * h and invocation < len(lengths) - 1}
                wakes, upcoming = [], None      # the first flood after each round, backwards
                for r in range(budget, -1, -1):
                    wakes.append(upcoming)
                    if r in floods:
                        upcoming = r
                wakes.reverse()
                assert [_round_facts(delta, k, r) for r in range(budget + 1)] == list(
                    zip([None, *reference], [r in floods for r in range(budget + 1)], wakes))
        with pytest.raises(ValueError):
            scheme_round_budget(3, 0)

    @pytest.mark.parametrize("colour", [BLACK, WHITE])
    @pytest.mark.parametrize("matched_port", [None, 2])
    def test_silent_round_changes_only_the_round(self, colour, matched_port):
        """Stepped in every round with an empty inbox, a node sends only the
        wake-up flood, and only in the rounds the wake its ``step`` returns
        names; a silent round after its invocation's first changes nothing."""
        alg = MatchingSchemeAlgorithm(2)
        state, _, wake = alg.init(NodeView(degree=3, max_degree=3, colour=colour))
        # init sees every black unmatched: it wakes them all at rho = 3h = 3 of invocation 0
        assert wake == (3 if colour == BLACK else None)
        state["matched_port"] = matched_port
        budget = alg.round_budget(3)
        named = []
        floods = []
        for r in range(1, budget + 1):
            before = dict(state)
            state, sends, wake = alg.step(state, {}, r)
            named.append(wake)
            if sends:
                assert sends == {1: b"\x01", 2: b"\x01", 3: b"\x01"}
                floods.append(r)
            elif state["invocation"] == before["invocation"]:
                assert state == before
        assert named == [min((f for f in floods if f > r), default=None)
                         for r in range(1, budget + 1)]
        # rho = 3h of each invocation but the last: t_1 = 3 with h = 1, t_2 = 6 with h = 3
        unmatched_black = colour == BLACK and matched_port is None
        assert floods == ([3, 6, 9, 18, 27, 36, 45, 54] if unmatched_black else [])


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_instance_across_degree_bounds(self, seed):
        """An instance reused on runs with degree bounds 3, 4, then 3 again
        gives every run what a fresh instance gives: the per-round schedule
        lookup is a function of the bound as well as the round."""
        g = random_bipartite(40, 3, seed)
        shared = MatchingSchemeAlgorithm(2)
        for delta in (3, 4, 3):
            got = run_local_algorithm(g, shared, max_degree=delta)
            want = run_local_algorithm(g, MatchingSchemeAlgorithm(2), max_degree=delta)
            assert got.outputs == want.outputs
            assert (got.steps, got.rounds_used) == (want.steps, want.rounds_used)

    def test_one_instance_steps_two_bounds_in_one_round(self):
        """Nodes of runs with different degree bounds, stepped alternately in
        the same rounds by one instance, each see their own schedule."""
        shared = MatchingSchemeAlgorithm(2)
        fresh = {3: MatchingSchemeAlgorithm(2), 4: MatchingSchemeAlgorithm(2)}
        for r in range(1, scheme_round_budget(3, 2) + 1):
            for delta in (3, 4):
                view = NodeView(degree=3, max_degree=delta, colour=BLACK)
                state, _, _ = shared.init(view)
                want, _, _ = fresh[delta].init(view)
                assert shared.step(state, {}, r) == fresh[delta].step(want, {}, r)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_inbox_takes_the_lowest_port_of_each_kind(self, reverse):
        """A flood is taken from its lowest port and a proposal from the
        lowest proposing child, whatever order the inbox lists them in.
        Degree bound 4, k = 2: h = 1 in rounds 1-12, h = 3 from round 13."""
        flood, propose, accept = b"\x01", b"\x02", b"\x03"
        alg = MatchingSchemeAlgorithm(2)

        def node(colour, matched_port=None):
            state, _, _ = alg.init(NodeView(degree=4, max_degree=4, colour=colour))
            state["matched_port"] = matched_port
            return state

        def inbox(*items):
            return dict(reversed(items) if reverse else items)

        # unmatched white at rho = h = 1: joins below port 1 and proposes there
        state, sends, _ = alg.step(node(WHITE), inbox((3, flood), (1, flood)), 1)
        assert (state["parent_port"], sends) == (1, {1: propose})
        # matched white at rho = 1 < h = 3: joins below port 1, floods its mate
        white, sends, _ = alg.step(node(WHITE, 3), inbox((3, flood), (1, flood)), 13)
        assert (white["parent_port"], sends) == (1, {3: flood})
        # matched black at rho = 2: joins below port 1, floods all but its mate
        state, sends, _ = alg.step(node(BLACK, 2), inbox((3, flood), (1, flood)), 14)
        assert (state["parent_port"], sends) == (1, {1: flood, 3: flood, 4: flood})
        # unmatched black root at rho = 2 of h = 1: accepts child port 2
        state, sends, _ = alg.step(node(BLACK), inbox((4, propose), (2, propose)), 2)
        assert (state["chosen_child_port"], state["matched_port"]) == (2, 2)
        assert sends == {2: accept}
        # the joined white at rho = 4: chooses child port 2, proposes to its parent
        state, sends, _ = alg.step(white, inbox((4, propose), (2, propose)), 16)
        assert (state["chosen_child_port"], sends) == (2, {1: propose})
