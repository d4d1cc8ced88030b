"""One contract for user data at every public function that takes it.

A malformed matching member, path, node, node set, permutation, colour,
parent port, star or edge spec is refused with the class ``errors.py``
documents for it, never with a ``TypeError`` or an ``IndexError`` from
inside the function; and each matching argument, node set, permutation,
colour list or edge list is read once, so a one-pass iterator gives the
same answer as the same items in a list.  A container that is not one
(``None`` for a matching, an int for a colour list) is refused the same
way, and ``verify_solution`` reports it as its one violation.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgraphs import BLACK, WHITE, build_graph, relabel, with_colours
from localgraphs.errors import GraphFormatError, InvariantError, MalformedSolutionError
from localgraphs.generators import (matching_to_independent_set, merge_layer_independent_sets,
                                    numbered_cycle, random_bipartite, random_weak)
from localgraphs.graph import induced_subgraph
from localgraphs.matching import (AugmentingForest, approximate_maximum_matching, augment_phase,
                                  eliminate_length, flood_phase, proposal_phase,
                                  run_matching_scheme)
from localgraphs.oddds import odd_delta_pipeline
from localgraphs.oracles import (Solution, VerificationReport, shortest_augmenting_path_length,
                                 validate_matching, verify_solution)
from localgraphs.starforest import StarForest, normalize_stars, run_star_forest, star_matching

CYCLE = numbered_cycle(6)
G = with_colours(CYCLE.graph, [BLACK, WHITE] * 3)     # properly coloured, bipartite
EDGES = sorted(G.edges) + [(v, u) for u, v in sorted(G.edges)]

# node ids in and out of range, values equal to an id that are not ints, and nesting
atoms = st.one_of(st.integers(-2, 8), st.sampled_from([0.0, 1.0, 2.0, True, False, None]))
values = st.recursive(atoms, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                     st.lists(inner, max_size=3).map(tuple)),
                      max_leaves=6)
matchings = st.lists(st.one_of(st.sampled_from(EDGES), values), max_size=4)
paths = st.lists(st.one_of(st.sampled_from(EDGES + [(5, 0, 1, 2), (1, 2, 3, 4)]), values),
                 max_size=3)
node_sets = st.lists(st.one_of(st.integers(0, 5), values), max_size=6)
parent_maps = st.dictionaries(st.integers(0, 5), atoms, max_size=6)
# stars of the cycle: leaf sets of the forest {0: {1, 5}, 3: {2, 4}}, and malformed ones
forests = st.dictionaries(
    st.integers(0, 5),
    st.one_of(st.sampled_from([frozenset({1, 5}), frozenset({2, 4})]), node_sets, values),
    max_size=3).map(StarForest)
colour_lists = st.lists(st.one_of(st.sampled_from([BLACK, WHITE]), values), min_size=5,
                        max_size=7)
edge_specs = st.lists(st.one_of(st.sampled_from([(0, 1, 1, 1), (1, 2, 2, 1), (0, 2, 2, 2)]),
                                st.lists(atoms, min_size=3, max_size=6).map(tuple), values),
                      max_size=4)

# name -> (argument strategy, call reading each matching or node set through
# ``once``, the classes the function documents for malformed user data)
ENTRY_POINTS = {
    "validate_matching": (
        matchings, lambda m, once: validate_matching(G, once(m)),
        (MalformedSolutionError,)),
    "flood_phase": (      # InvariantError: a path shorter than h exists
        st.tuples(matchings, st.sampled_from([1, 3, 5])),
        lambda a, once: flood_phase(G, once(a[0]), a[1]),
        (MalformedSolutionError, InvariantError)),
    "augment_phase": (
        st.tuples(matchings, paths),
        lambda a, once: augment_phase(G, once(a[0]), a[1]),
        (MalformedSolutionError,)),
    "eliminate_length": (     # InvariantError: the flood's, for a path shorter than 2i-1
        st.tuples(matchings, st.sampled_from([1, 2])),
        lambda a, once: eliminate_length(G, once(a[0]), a[1]),
        (MalformedSolutionError, InvariantError)),
    "shortest_augmenting_path_length": (
        matchings, lambda m, once: shortest_augmenting_path_length(G, once(m)),
        (MalformedSolutionError,)),
    "matching_to_independent_set": (
        matchings, lambda m, once: matching_to_independent_set(CYCLE, once(m)),
        (MalformedSolutionError,)),
    "merge_layer_independent_sets": (
        st.lists(node_sets, max_size=3),
        lambda layers, once: merge_layer_independent_sets(CYCLE, [once(s) for s in layers]),
        (MalformedSolutionError,)),
    "induced_subgraph": (
        node_sets, lambda nodes, once: induced_subgraph(G, once(nodes)),
        (ValueError,)),
    "normalize_stars": (
        parent_maps, lambda parent_port, once: normalize_stars(CYCLE.graph, parent_port),
        (MalformedSolutionError,)),
    "star_matching": (
        forests, lambda sf, once: star_matching(CYCLE.graph, sf),
        (MalformedSolutionError,)),
    "build_graph": (
        st.tuples(st.one_of(st.integers(0, 4), atoms), edge_specs),
        lambda a, once: build_graph(a[0], once(a[1])),
        (GraphFormatError,)),
    "relabel": (
        st.one_of(st.permutations(range(6)), node_sets),
        lambda perm, once: relabel(G, once(perm)),
        (ValueError,)),
    "with_colours": (
        colour_lists, lambda colours, once: with_colours(G, once(colours)),
        (GraphFormatError,)),
}


def outcome(call):
    """("returned", value) or (exception class, message)."""
    try:
        return "returned", call()
    except Exception as exc:    # the contract is about which classes escape
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_user_data_contract(name, data):
    strategy, call, documented = ENTRY_POINTS[name]
    arg = data.draw(strategy)
    from_list = outcome(lambda: call(arg, list))
    kind, detail = from_list
    assert kind == "returned" or issubclass(kind, documented), (kind, detail)
    assert outcome(lambda: call(arg, iter)) == from_list


# a bool or a float equal to an int would be read as that int and return, which
# the class contract above cannot tell from a valid call
@pytest.mark.parametrize("call, error, message", [
    (lambda: normalize_stars(CYCLE.graph, {0: True, 2: 1, 4: 1}),
     MalformedSolutionError, r"node 0 has ports 1\.\.2, got True"),
    (lambda: build_graph(2, [(False, True, 1, 1)]),
     GraphFormatError, r"edge fields must be integers: \(False, True, 1, 1\)"),
    (lambda: build_graph(2, [(0, 1, 1.0, True)]),
     GraphFormatError, r"edge fields must be integers: \(0, 1, 1\.0, True\)"),
    (lambda: numbered_cycle(6.0), ValueError, r"cycle needs an integer node count, got 6\.0"),
    (lambda: run_matching_scheme(G, True), ValueError, "k must be an integer, got True"),
    (lambda: approximate_maximum_matching(G, True), ValueError,
     "k must be an integer, got True"),
    # a declared degree bound: a float or str escaped as TypeError or ran as Δ = 3.0
    (lambda: run_matching_scheme(random_bipartite(20, 3, 1), 1, max_degree=3.0), ValueError,
     r"declared degree bound must be an integer, got 3\.0"),
    (lambda: approximate_maximum_matching(random_bipartite(20, 3, 1), 1, max_degree=3.0),
     ValueError, r"declared degree bound must be an integer, got 3\.0"),
    (lambda: run_star_forest(random_bipartite(20, 3, 1), max_degree=3.0), ValueError,
     r"declared degree bound must be an integer, got 3\.0"),
    (lambda: odd_delta_pipeline(random_weak(20, 3, 1), None, 3.0), ValueError,
     r"declared degree bound must be an integer, got 3\.0"),
    (lambda: run_matching_scheme(random_bipartite(20, 3, 1), 1, max_degree="3"), ValueError,
     "declared degree bound must be an integer, got '3'"),
    (lambda: approximate_maximum_matching(build_graph(2, [(0, 1, 1, 1)], [BLACK, WHITE]), 1,
                                          max_degree=True), ValueError,
     "declared degree bound must be an integer, got True"),
    # eliminate_length's path index: checked before its i >= 1 test, and named i
    (lambda: eliminate_length(random_bipartite(20, 3, 1), frozenset(), "1"), ValueError,
     "path index i must be an integer, got '1'"),
    (lambda: eliminate_length(random_bipartite(20, 3, 1), frozenset(), None), ValueError,
     "path index i must be an integer, got None"),
    (lambda: eliminate_length(G, frozenset(), True), ValueError,
     "path index i must be an integer, got True"),
    (lambda: eliminate_length(G, frozenset(), 1.0), ValueError,
     r"path index i must be an integer, got 1\.0"),
    (lambda: eliminate_length(G, frozenset(), 0), ValueError,
     "path index i must be at least 1, got 0"),
    # the flood's path length h: a bool ran as h = 1, a str or a float escaped as TypeError
    (lambda: flood_phase(random_bipartite(10, 3, 1), frozenset(), True), ValueError,
     "path length must be a positive odd number, got True"),
    (lambda: flood_phase(random_bipartite(10, 3, 1), frozenset(), "1"), ValueError,
     "path length must be a positive odd number, got '1'"),
    (lambda: flood_phase(random_bipartite(10, 3, 1), frozenset(), 1.0), ValueError,
     r"path length must be a positive odd number, got 1\.0"),
    # a forest's height is user data: a str escaped as TypeError
    (lambda: proposal_phase(random_bipartite(10, 3, 1),
                            AugmentingForest("1", {}, frozenset({0}), frozenset({0}))),
     MalformedSolutionError, "forest height '1' is not an integer"),
    (lambda: proposal_phase(random_bipartite(10, 3, 1),
                            AugmentingForest(True, {}, frozenset({0}), frozenset({0}))),
     MalformedSolutionError, "forest height True is not an integer"),
], ids=["bool-parent-port", "bool-ids", "float-and-bool-ports", "float-cycle-length",
        "bool-k-simulated", "bool-k-centralized", "float-degree-bound-simulated",
        "float-degree-bound-centralized", "float-degree-bound-star", "float-degree-bound-odd-ds",
        "str-degree-bound", "bool-degree-bound", "str-path-index", "none-path-index",
        "bool-path-index", "float-path-index", "zero-path-index", "bool-path-length",
        "str-path-length", "float-path-length", "str-forest-height", "bool-forest-height"])
def test_a_value_equal_to_an_int_is_refused_not_read_as_it(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_matching_to_independent_set_checks_a_one_pass_iterator():
    with pytest.raises(MalformedSolutionError,
                       match=r"^edge \(1, 2\) shares a node with another edge$"):
        matching_to_independent_set(numbered_cycle(6), iter([(0, 1), (1, 2)]))


@pytest.mark.parametrize("path", [(), [[0], [1]], 0, None, (0, None)],
                         ids=["empty", "nested", "int", "none", "unorderable"])
def test_augment_refuses_a_path_that_is_not_a_sequence_of_ids(single_edge, path):
    with pytest.raises(MalformedSolutionError, match=f"^{re.escape(repr(path))} is not a path$"):
        augment_phase(single_edge, frozenset(), [path])


def test_verify_solution_reads_a_one_pass_iterator_once():
    # the members cannot be ordered, so they are sorted a second time, by type and repr
    items = [(0, 1), (None, 1)]
    report = verify_solution(CYCLE.graph, Solution("matching", iter(items)))
    assert report == verify_solution(CYCLE.graph, Solution("matching", items))
    assert report == VerificationReport(
        ok=False, violations=["(None, 1) is not an edge of the graph"])


@pytest.mark.parametrize("kind, violations", [
    ("dominating-set", ["[0] is not a node", "node 3 is not dominated",
                        "node 4 is not dominated", "node 5 is not dominated"]),
    ("independent-set", ["[0] is not a node"]),
])
def test_verify_solution_reports_a_member_that_cannot_be_hashed(kind, violations):
    report = verify_solution(CYCLE.graph, Solution(kind, [[0], 1]))
    assert report == VerificationReport(ok=False, violations=violations)


def test_augment_reads_its_paths_once(single_edge):
    assert augment_phase(single_edge, frozenset(), iter([(0, 1)])) == {(0, 1)}


def test_merge_refuses_a_member_that_cannot_be_hashed():
    with pytest.raises(MalformedSolutionError, match=r"^layer 0: \[0, 1\] is not a node$"):
        merge_layer_independent_sets(numbered_cycle(6), [[[0, 1]]])


def test_induced_subgraph_refuses_a_member_that_cannot_be_hashed():
    with pytest.raises(ValueError, match=r"^kept nodes must be ints in 0\.\.5$"):
        induced_subgraph(G, [[0, 1]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_graph(2, None), GraphFormatError, "edges must be iterable, got None"),
    (lambda: build_graph(2, [(0, 1, 1, 1)], 5), GraphFormatError,
     "colours must be iterable, got 5"),
    (lambda: normalize_stars(CYCLE.graph, None), MalformedSolutionError,
     "parent ports None are not a mapping"),
    (lambda: star_matching(CYCLE.graph, StarForest(None)), MalformedSolutionError,
     "stars None are not a mapping"),
    (lambda: star_matching(CYCLE.graph, None), MalformedSolutionError,
     "None is not a StarForest"),
    (lambda: validate_matching(CYCLE.graph, None), MalformedSolutionError,
     "None is not a set of edges"),
    (lambda: matching_to_independent_set(CYCLE, None), MalformedSolutionError,
     "None is not a set of edges"),
    (lambda: matching_to_independent_set(CYCLE, 5), MalformedSolutionError,
     "5 is not a set of edges"),
    # verify_solution reports a violation and never raises one
    (lambda: verify_solution(CYCLE.graph, Solution("matching", None)), None,
     "members None are not a set"),
    (lambda: verify_solution(CYCLE.graph, Solution("dominating-set", 3)), None,
     "members 3 are not a set"),
    (lambda: relabel(G, None), ValueError, r"perm must be a permutation of 0\.\.n-1"),
    (lambda: relabel(G, {v: (v + 1) % 6 for v in range(6)}), ValueError,
     r"perm must be a permutation of 0\.\.n-1"),
    (lambda: induced_subgraph(G, None), ValueError, "kept nodes None are not a node set"),
    (lambda: merge_layer_independent_sets(CYCLE, None), MalformedSolutionError,
     "layers None are not a sequence of node sets"),
    (lambda: merge_layer_independent_sets(CYCLE, [{0}, None]), MalformedSolutionError,
     "layer 1 is None, not a node set"),
    (lambda: proposal_phase(G, None), MalformedSolutionError,
     "None is not an AugmentingForest"),
    (lambda: augment_phase(G, frozenset(), None), MalformedSolutionError,
     "paths None are not a sequence of paths"),
], ids=["build_graph-edges", "build_graph-colours", "normalize_stars", "star_matching",
        "star_matching-forest", "validate_matching", "matching_to_independent_set-none",
        "matching_to_independent_set-int", "verify_solution-matching", "verify_solution-dominating-set",
        "relabel", "relabel-mapping", "induced_subgraph", "merge-layers", "merge-layer", "proposal_phase",
        "augment_phase"])
def test_a_malformed_container_is_refused_with_its_documented_class(call, error, message):
    if error is None:
        assert call() == VerificationReport(ok=False, violations=[message])
    else:
        with pytest.raises(error, match=f"^{message}$"):
            call()
