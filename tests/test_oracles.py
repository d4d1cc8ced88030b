"""Oracles: exact values on fixtures, agreement with plain enumeration."""

from __future__ import annotations

import hashlib
import itertools
import random
import re

import pytest

from localgraphs import oracles
from localgraphs.errors import MalformedSolutionError, TooLargeError
from localgraphs.generators import numbered_cycle, random_bipartite, random_weak
from localgraphs.graph import build_graph
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 brute_min_dominating_set,
                                 shortest_augmenting_path_length,
                                 try_bipartition, validate_matching,
                                 verify_solution)

import _corpus
from conftest import ascending_ports, greedy_random_matching


def star_k13():
    return ascending_ports(4, [(0, 1), (0, 2), (0, 3)])


def cycle(n):
    return ascending_ports(n, [(i, (i + 1) % n) for i in range(n)])


# -- reference enumerations (independent of the oracles' search strategy) -----

def enum_min_dominating_set_size(g):
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(v in chosen or any(u in chosen for u in g.neighbours(v))
                   for v in g.nodes):
                return size
    raise AssertionError


def enum_max_matching_size(g):
    edges = sorted(g.edges)

    def rec(idx, used):
        if idx == len(edges):
            return 0
        best = rec(idx + 1, used)
        u, v = edges[idx]
        if u not in used and v not in used:
            best = max(best, 1 + rec(idx + 1, used | {u, v}))
        return best

    return rec(0, frozenset())


def _dfs_shortest_augmenting(g, partner):
    best: int | None = None
    unmatched = [v for v in g.nodes if v not in partner]
    visited: set[int] = set()

    def dfs(v: int, length: int, want_matched: bool):
        nonlocal best
        if best is not None and length >= best:
            return
        for u in g.neighbours(v):
            if u in visited:
                continue
            is_matched = partner.get(v) == u
            if is_matched != want_matched:
                continue
            if not want_matched and u not in partner:
                best = length + 1
                continue
            if u in partner:
                visited.add(u)
                dfs(u, length + 1, not want_matched)
                visited.discard(u)

    for a in unmatched:
        visited = {a}
        dfs(a, 0, want_matched=False)
        if best == 1:
            return 1
    return best


def dfs_shortest_augmenting_path_length(g, m):
    """The oracle's answer by exhaustive search, on bipartite graphs or not."""
    return _dfs_shortest_augmenting(g, validate_matching(g, m))


def enum_min_vertex_cover_size(g):
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size
    raise AssertionError


class TestFixtures:
    def test_dominating_set(self, single_edge, c4_coloured):
        assert len(brute_min_dominating_set(single_edge)) == 1
        assert len(brute_min_dominating_set(c4_coloured)) == 2
        assert brute_min_dominating_set(star_k13()) == {0}

    def test_matching(self, single_edge, p4_coloured):
        assert len(brute_max_matching(single_edge)) == 1
        assert len(brute_max_matching(p4_coloured)) == 2
        assert len(brute_max_matching(cycle(6))) == 3

    @pytest.mark.parametrize("oracle, expected", [
        (brute_min_dominating_set, frozenset()),
        (brute_max_matching, frozenset()),
        (lambda g: shortest_augmenting_path_length(g, frozenset()), None),
    ], ids=["dominating-set", "matching", "augmenting-path"])
    def test_empty_graph(self, oracle, expected):
        assert oracle(build_graph(0, [])) == expected

    def test_too_large(self, monkeypatch):
        g = random_weak(30, 3, 1, oriented=False)
        monkeypatch.setattr(oracles, "SEARCH_BUDGET", 1000)
        with pytest.raises(TooLargeError, match="budget of 1000 word operations"):
            brute_min_dominating_set(g)
        # matching has no such budget, on bipartite graphs or others
        big = random_bipartite(40, 3, 1)
        assert brute_max_matching(big)
        assert try_bipartition(g) is None
        m = brute_max_matching(g)
        assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
        assert len(m) == g.n // 2


# SHA-256 of repr(sorted(dominating set)) + "\n" per graph: the corpus
# graphs in corpus order, then random_weak and random_bipartite on 24
# nodes for seeds 0..29.  The same sets as under the 24-node limit that
# the work budget replaced: counting must not steer.
DOMINATING_SET_MEMBERS = "d57e3eefbc0b877d5b39fe4732e317a04d503e182d1fbef9e504b1816414ae20"


class TestWorkBudget:
    def test_budget_never_steers_a_search(self, small_corpus):
        graphs = list(small_corpus)
        graphs += [random_weak(24, 3 + s % 3, s) for s in range(30)]
        graphs += [random_bipartite(24, 3 + s % 3, s) for s in range(30)]
        h = hashlib.sha256()
        for g in graphs:
            h.update(repr(sorted(brute_min_dominating_set(g))).encode() + b"\n")
        assert len(graphs) == 12172
        assert h.hexdigest() == DOMINATING_SET_MEMBERS

    def test_refused_at_the_same_count_on_every_run(self, monkeypatch):
        g = random_weak(40, 4, 0)     # 419,520 word operations for the dominating set
        monkeypatch.setattr(oracles, "SEARCH_BUDGET", 500)
        refusals = set()
        for _ in range(3):
            with pytest.raises(TooLargeError) as info:
                brute_min_dominating_set(g)
            refusals.add(str(info.value))
        assert len(refusals) == 1
        # stopped by the first charge past the budget, at most three passes
        # over the n nodes
        spent = int(refusals.pop().rsplit(" ", 1)[1])
        assert 500 < spent <= 500 + 3 * g.n

    # (n, passes over n masks at the refusal): the masks alone do not fit
    # 10^5 nodes; on 21800 they fit, but the first greedy pick after them does not
    @pytest.mark.parametrize("size, passes", [(10**5, 2), (21800, 3)])
    def test_wide_graph_refused_before_any_mask_is_built(self, size, passes):
        class Wide:     # reading edges or nodes would start building masks
            n = size
            edges = nodes = property(lambda self: pytest.fail("mask built"))

        words = -(-size // 64)
        with pytest.raises(TooLargeError, match=f" at {passes * size * words}$"):
            brute_min_dominating_set(Wide())


class TestShortestAugmentingPath:
    def test_single_unmatched_edge(self, single_edge):
        assert shortest_augmenting_path_length(single_edge, frozenset()) == 1

    def test_p4_middle_edge(self, p4_coloured):
        assert shortest_augmenting_path_length(p4_coloured, {(1, 2)}) == 3

    def test_p4_maximum(self, p4_coloured):
        assert shortest_augmenting_path_length(p4_coloured, {(0, 1), (2, 3)}) is None

    def test_odd_cycle_fixture(self):
        c5 = cycle(5)
        assert dfs_shortest_augmenting_path_length(c5, {(0, 1), (2, 3)}) is None
        assert dfs_shortest_augmenting_path_length(c5, {(1, 2)}) == 1

    def test_refuses_non_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            shortest_augmenting_path_length(cycle(5), {(1, 2)})

    def test_invalid_matching(self, p4_coloured):
        with pytest.raises(MalformedSolutionError,
                           match=r"^edge \(1, 2\) shares a node with another edge$"):
            shortest_augmenting_path_length(p4_coloured, {(0, 1), (1, 2)})
        with pytest.raises(MalformedSolutionError,
                           match=r"^\(0, 2\) is not an edge of the graph$"):
            shortest_augmenting_path_length(p4_coloured, {(0, 2)})

    def test_none_iff_maximum(self):
        rng = random.Random(7)
        bipartite = 0
        for trial in range(60):
            n = rng.randrange(4, 11)
            g = random_weak(n, 3, trial, oriented=False)
            matching = greedy_random_matching(g, rng)
            is_max = len(matching) == len(brute_max_matching(g))
            spl = dfs_shortest_augmenting_path_length(g, matching)
            assert (spl is None) == is_max
            if try_bipartition(g) is not None:
                assert shortest_augmenting_path_length(g, matching) == spl
                bipartite += 1
        assert bipartite > 20


@pytest.fixture(scope="module")
def small_corpus():
    # the full corpus of connected graphs up to 8 nodes
    return [ascending_ports(n, edges)
            for n, edges in _corpus.connected_graphs(max_n=8)]


class TestAgreementWithEnumeration:
    def test_dominating_set_agrees(self, small_corpus):
        for g in small_corpus:
            assert len(brute_min_dominating_set(g)) == enum_min_dominating_set_size(g)

    def test_matching_agrees(self, small_corpus):
        for g in small_corpus:
            m = brute_max_matching(g)
            assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
            assert len(m) == enum_max_matching_size(g)

    def test_koenig_on_bipartite(self):
        for n, edges in _corpus.bipartite_connected_graphs(max_n=7):
            g = ascending_ports(n, edges)
            assert len(brute_max_matching(g)) == enum_min_vertex_cover_size(g)


# SHA-256 of repr(sorted(matching)) + "\n" over the non-bipartite corpus
# graphs in corpus order: the blossom solver's matchings without the
# Hungarian-tree skip, which must leave every one of them unchanged
NON_BIPARTITE_MATCHINGS = "24327e58999c29ed00dd02668540cd9c85e146c8ded66757df7e81b943c61939"


class TestBlossom:
    def test_non_bipartite_corpus_matchings_pinned(self, small_corpus):
        h = hashlib.sha256()
        count = 0
        for g in small_corpus:
            if try_bipartition(g) is None:
                h.update(repr(sorted(brute_max_matching(g))).encode() + b"\n")
                count += 1
        assert count == 11859
        assert h.hexdigest() == NON_BIPARTITE_MATCHINGS

    def test_dense_bipartite_instance(self):
        # many nodes stay free, where a search that keeps re-entering
        # failed trees takes seconds; by Berge's theorem a matching with
        # no augmenting path is maximum
        g = random_bipartite(10000, 6, 2)
        m = brute_max_matching(g)
        assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
        assert shortest_augmenting_path_length(g, m) is None

    def test_augmenting_path_through_odd_cycle(self):
        # the greedy start matches 0-1 and 2-3 and leaves 4 and 5 free; both
        # of 4's neighbours (0 and 3) enter its search tree as odd nodes, so
        # the only augmenting paths, 4-0=1-2=3-5 and 4-3=2-1=0-5, run through
        # the 5-cycle 4-0-1-2-3 and are found only once it is contracted
        g = ascending_ports(6, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4), (0, 5), (3, 5)])
        m = brute_max_matching(g)
        assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
        assert len(m) == enum_max_matching_size(g) == 3

    def test_later_search_reaches_nodes_an_earlier_one_left_odd(self):
        # random_weak(14, 4, 1340, oriented=False): the search from 6 ends at
        # 11 and reaches 5 and 3 as odd nodes; the next, from 12, augments
        # along 12-5=7-8=3-13, which it finds only if the search tables the
        # two share were reset at 5 and 3
        g = build_graph(14, [
            (0, 10, 1, 1), (1, 6, 2, 1), (1, 9, 1, 1), (1, 11, 3, 1), (2, 4, 1, 1),
            (2, 7, 2, 3), (3, 8, 2, 2), (3, 9, 1, 2), (3, 13, 3, 1), (5, 6, 3, 3),
            (5, 7, 1, 2), (5, 12, 2, 1), (6, 9, 2, 3), (7, 8, 1, 1)])
        assert try_bipartition(g) is None
        m = brute_max_matching(g)
        assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
        assert len(m) == enum_max_matching_size(g) == 7

    def test_random_non_bipartite_leave_no_augmenting_path(self):
        # n = 9..16, where the enumerator is not run: by Berge's theorem a
        # matching that the separate exhaustive search finds no augmenting
        # path for is maximum
        checked = 0
        for n in range(9, 17):
            for delta in (3, 4, 5, 6):
                for s in range(40):
                    g = random_weak(n, delta, s, oriented=False)
                    if try_bipartition(g) is not None:
                        continue
                    m = brute_max_matching(g)
                    assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
                    assert dfs_shortest_augmenting_path_length(g, m) is None
                    checked += 1
        assert checked > 900


class TestCycleIndependenceNumber:
    """alpha(C_n) = n // 2: the closed form that the cycle extraction
    tests and criterion 8's size bounds use where no search runs."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_half_the_cycle_is_independent_and_one_node_more_is_not(self, n):
        g = numbered_cycle(n).graph
        half = frozenset(range(0, 2 * (n // 2), 2))
        assert len(half) == n // 2
        assert verify_solution(g, Solution(SolutionKind.INDEPENDENT_SET, half)).ok
        for subset in itertools.combinations(range(n), n // 2 + 1):
            assert not verify_solution(
                g, Solution(SolutionKind.INDEPENDENT_SET, frozenset(subset))).ok


class TestVerify:
    def test_independent_set_violations_are_the_edges_inside(self):
        # every subset of every connected graph on up to 6 nodes
        for n, edges in _corpus.connected_graphs(max_n=6):
            g = ascending_ports(n, edges)
            for mask in range(1 << n):
                members = frozenset(v for v in range(n) if mask >> v & 1)
                inside = [f"edge ({u}, {v}) lies inside the set"
                          for u, v in sorted(g.edges) if u in members and v in members]
                report = verify_solution(g, Solution(SolutionKind.INDEPENDENT_SET, members))
                assert (report.ok, report.violations) == (not inside, inside)

    def test_undominated_reported(self, c4_coloured):
        report = verify_solution(
            c4_coloured, Solution(SolutionKind.DOMINATING_SET, frozenset({0})))
        assert not report.ok
        assert any("not dominated" in v for v in report.violations)

    def test_empty_matching_ok(self, c4_coloured):
        assert verify_solution(
            c4_coloured, Solution(SolutionKind.MATCHING, frozenset())).ok

    def test_adjacent_pair_not_independent(self, single_edge):
        report = verify_solution(
            single_edge, Solution(SolutionKind.INDEPENDENT_SET, frozenset({0, 1})))
        assert not report.ok

    def test_overlapping_matching_reported(self, p4_coloured):
        report = verify_solution(
            p4_coloured, Solution(SolutionKind.MATCHING, frozenset({(0, 1), (1, 2)})))
        assert not report.ok

    def test_solutions_returned_by_oracles_verify(self, c4_coloured):
        ds = brute_min_dominating_set(c4_coloured)
        assert verify_solution(
            c4_coloured, Solution(SolutionKind.DOMINATING_SET, ds)).ok

    @pytest.mark.parametrize("kind, members, violation", [
        (SolutionKind.MATCHING, {(0.0, 1.0), (2.0, 3.0)},
         "(0.0, 1.0) is not an edge of the graph"),
        (SolutionKind.DOMINATING_SET, {True, 3}, "True is not a node"),
        (SolutionKind.INDEPENDENT_SET, {False, 2}, "False is not a node"),
    ], ids=["matching", "dominating-set", "independent-set"])
    def test_member_equal_to_a_node_id_is_not_that_node(self, kind, members, violation):
        report = verify_solution(numbered_cycle(4).graph, Solution(kind, frozenset(members)))
        assert not report.ok
        assert violation in report.violations

    @pytest.mark.parametrize("kind, members, violation", [
        (SolutionKind.DOMINATING_SET, {"a", 1}, "'a' is not a node"),
        (SolutionKind.MATCHING, {(0, 1), ("a", 2)}, "('a', 2) is not an edge of the graph"),
        (SolutionKind.MATCHING, {(0, 1, 2)}, "(0, 1, 2) is not an edge of the graph"),
    ], ids=["unorderable-node", "unorderable-pair", "triple"])
    def test_unorderable_or_misshapen_member_is_reported(self, kind, members, violation):
        report = verify_solution(numbered_cycle(4).graph, Solution(kind, frozenset(members)))
        assert not report.ok
        assert violation in report.violations

    def test_integer_members_are_reported_in_sorted_order(self):
        report = verify_solution(numbered_cycle(4).graph,
                                 Solution(SolutionKind.MATCHING, frozenset({(9, 8), (2, 3), (1, 2)})))
        assert report.violations == ["edge (2, 3) shares a node with another edge",
                                     "(8, 9) is not an edge of the graph"]

    @pytest.mark.parametrize("members, violations", [
        ({(0, 1), (1, 0)}, []),
        ({(0, 1), (1, 0), (2, 1)}, ["edge (1, 2) shares a node with another edge"]),
        ({(8, 9), (9, 8)}, ["(8, 9) is not an edge of the graph"]),
    ], ids=["edge", "edge-and-neighbour", "non-edge"])
    def test_a_pair_and_its_reverse_are_one_member(self, members, violations):
        # validate_matching, and the CLI's solution reader, take them as one edge too
        g = numbered_cycle(4).graph
        report = verify_solution(g, Solution(SolutionKind.MATCHING, frozenset(members)))
        assert report == (not violations, violations)

    def test_plain_string_kind_is_checked_as_that_kind(self):
        g = random_weak(10, 3, 1)
        report = verify_solution(g, Solution("dominating-set", frozenset()))
        assert not report.ok
        assert "node 0 is not dominated" in report.violations
        report = verify_solution(g, Solution("matching", frozenset({(0, 1), (0, 2)})))
        assert report.violations == ["(0, 1) is not an edge of the graph",
                                     "(0, 2) is not an edge of the graph"]
        assert verify_solution(g, Solution("matching", g.edges)).ok

    def test_unknown_kind_is_one_violation(self):
        report = verify_solution(random_weak(10, 3, 1), Solution("bogus", frozenset({0})))
        assert report == (False, ["'bogus' is not a solution kind"])

    @pytest.mark.parametrize("member", [(0, 1, 2), ("a", 2), (0,), 5, ([0], [1])])
    def test_validate_matching_refuses_a_member_that_is_not_a_pair_of_ids(self, member):
        with pytest.raises(MalformedSolutionError, match=re.escape(f"{member!r} is not an edge")):
            validate_matching(numbered_cycle(4).graph, [(2, 3), member])

    def test_validate_matching_refuses_a_member_equal_to_a_node_id(self):
        g = numbered_cycle(4).graph
        for m in ({(0.0, 1.0)}, {(True, 2)}):
            with pytest.raises(MalformedSolutionError, match="is not an edge"):
                validate_matching(g, m)
