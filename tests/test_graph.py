"""graph core: validation, colour classification, ports, JSON round trip."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgraphs import (BLACK, INCOMING, OUTGOING, WHITE, ColouringClass, build_graph,
                         classify_colouring)
from localgraphs.errors import CapabilityError, GraphFormatError, MalformedSolutionError
from localgraphs.graph import (Graph, disjoint_union, dumps, edge_specs, fixup_weak_colouring,
                               graph_from_json_dict, graph_to_json_dict,
                               induced_subgraph, loads, normalize_edge, relabel,
                               with_colours)
from localgraphs.generators import (numbered_cycle, random_bipartite, random_weak,
                                    random_weak_colouring, shuffle_ports)
from localgraphs.matching import eliminate_length, flood_phase, proposal_phase
from localgraphs.oddds import build_h2, partition_abc
from localgraphs.starforest import build_parent_forest, normalize_stars, star_matching

from conftest import path_graph
from test_golden import CANONICAL_GRAPHS


class TestBuildGraph:
    def test_smallest_legal_instance(self, single_edge):
        assert single_edge.n == 2
        assert single_edge.edges == {(0, 1)}
        assert single_edge.colour(0) == BLACK

    def test_isolated_node_rejected(self):
        with pytest.raises(GraphFormatError, match="has no neighbours"):
            build_graph(1, [])

    def test_port_clash(self):
        with pytest.raises(GraphFormatError, match="reused"):
            build_graph(3, [(0, 1, 1, 1), (1, 2, 1, 1)])

    def test_port_gap(self):
        # node 1 uses ports {1, 3} with degree 2
        with pytest.raises(GraphFormatError, match="not exactly"):
            build_graph(3, [(0, 1, 1, 1), (1, 2, 3, 1)])

    def test_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            build_graph(2, [(0, 0, 1, 2), (0, 1, 3, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="listed twice"):
            build_graph(2, [(0, 1, 1, 1), (1, 0, 2, 2)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            build_graph(2, [(0, 2, 1, 1)])

    def test_mixed_orientation_rejected(self):
        with pytest.raises(GraphFormatError):
            build_graph(3, [(0, 1, 1, 1, "uv"), (1, 2, 2, 1)])

    def test_colour_length_checked(self):
        with pytest.raises(GraphFormatError, match="expected 2 colours"):
            build_graph(2, [(0, 1, 1, 1)], [BLACK])

    def test_negative_node_count(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            build_graph(-1, [])


# one defect per row, with the GraphFormatError message build_graph reports
# for it; the checks run per spec in list order, then over the whole edge
# list, then per node
BUILD_ERRORS = [
    ("3-field spec", 2, [(0, 1, 1)],
     "edge spec must have 4 or 5 fields, got (0, 1, 1)"),
    ("endpoint out of range", 2, [(0, 1, 1, 1), (1, 2, 2, 1)],
     "edge (1, 2) out of range for 2 nodes"),
    ("self-loop", 2, [(0, 1, 1, 1), (1, 1, 2, 3)],
     "self-loop at node 1"),
    ("duplicate given as (v, u)", 2, [(0, 1, 1, 1), (1, 0, 2, 2)],
     "edge (0, 1) listed twice"),
    ("port clash at u", 3, [(0, 1, 1, 1), (0, 2, 1, 1)],
     "port 1 reused at node 0"),
    ("port clash at v", 3, [(0, 1, 1, 1), (2, 1, 1, 1)],
     "port 1 reused at node 1"),
    ("direction xy", 2, [(0, 1, 1, 1, "xy")],
     "direction must be 'uv', 'vu' or None, got 'xy'"),
    ("partial orientation", 3, [(0, 1, 1, 1, "uv"), (1, 2, 2, 1, None)],
     "orientation must be given for all edges or none"),
    ("isolated node", 3, [(0, 1, 1, 1)],
     "node 2 has no neighbours"),
    ("port gap", 3, [(0, 1, 1, 1), (1, 2, 3, 1)],
     "node 1: ports [1, 3] are not exactly 1..2"),
    # several defects: the first one listed wins, whatever its kind
    ("port clash before later defects", 6,
     [(0, 1, 1, 1), (0, 2, 1, 1), (3, 3, 1, 2), (0, 9, 2, 1), (4, 1, 1, 3, "xy")],
     "port 1 reused at node 0"),
]


@pytest.mark.parametrize("n, specs, message",
                         [row[1:] for row in BUILD_ERRORS],
                         ids=[row[0] for row in BUILD_ERRORS])
def test_build_graph_reports_the_first_defect(n, specs, message):
    with pytest.raises(GraphFormatError) as caught:
        build_graph(n, specs)
    assert str(caught.value) == message

    # the same edges as a JSON document; a 4-field spec's edge has no "dir", read as null
    fields = ("u", "v", "port_u", "port_v", "dir")
    doc = {"nodes": [{"id": v, "colour": None} for v in range(n)],
           "edges": [dict(zip(fields, spec)) for spec in specs]}
    with pytest.raises(GraphFormatError) as caught:
        loads(json.dumps(doc))
    if len(specs[0]) < 4:       # the document check sees the missing field first
        assert str(caught.value).startswith("bad edge document")
    else:
        assert str(caught.value) == message


@pytest.mark.parametrize("n, specs, message", [
    (2, [None], "edge spec must have 4 or 5 fields, got None"),
    (2, [5], "edge spec must have 4 or 5 fields, got 5"),
    (2, [(0, 1, 1, 1, None, None)], "edge spec must have 4 or 5 fields, got (0, 1, 1, 1, None, None)"),
    (True, [], "node_count must be an integer, got True"),
    ("2", [], "node_count must be an integer, got '2'"),
    (2.0, [], "node_count must be an integer, got 2.0"),
    (None, [], "node_count must be an integer, got None"),
], ids=["none-spec", "int-spec", "6-field spec", "bool-count", "str-count", "float-count",
        "none-count"])
def test_build_graph_refuses_a_spec_without_fields_and_a_count_that_is_not_an_int(
        n, specs, message):
    with pytest.raises(GraphFormatError) as caught:
        build_graph(n, specs)
    assert str(caught.value) == message


@pytest.mark.parametrize("field, value", [("u", False), ("v", True), ("port_u", 1.0),
                                          ("port_v", "1"), ("u", None)])
def test_json_edge_fields_must_be_integers(field, value):
    edge = {"u": 0, "v": 1, "port_u": 1, "port_v": 1, "dir": None, field: value}
    doc = {"nodes": [{"id": 0, "colour": None}, {"id": 1, "colour": None}], "edges": [edge]}
    spec = (edge["u"], edge["v"], edge["port_u"], edge["port_v"], None)
    with pytest.raises(GraphFormatError) as caught:
        loads(json.dumps(doc))
    assert str(caught.value) == f"edge fields must be integers: {spec!r}"


class TestClassify:
    def test_single_edge_proper(self, single_edge):
        assert classify_colouring(single_edge) is ColouringClass.PROPER

    def test_triangle_weak_not_proper(self):
        tri = build_graph(3, [(0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 2, 2)],
                          [BLACK, WHITE, WHITE])
        assert classify_colouring(tri) is ColouringClass.WEAK

    def test_all_white_path_is_none(self):
        assert classify_colouring(path_graph("www")) is ColouringClass.NONE

    def test_uncoloured_raises(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        with pytest.raises(CapabilityError, match="no complete colour assignment"):
            classify_colouring(g)

    def test_proper_satisfies_weak_predicate(self, c4_coloured):
        # independent evaluation of the weak predicate
        g = c4_coloured
        assert classify_colouring(g) is ColouringClass.PROPER
        for v in g.nodes:
            assert any(g.colour(u) != g.colour(v) for u in g.neighbours(v))


def test_fixup_keeps_the_colour_of_a_node_with_no_listed_neighbour():
    # nodes 0 and 1 list each other, so the sweep flips 0 and then leaves 1;
    # node 2 lists nobody and keeps its colour
    assert fixup_weak_colouring([[1], [0], []], [WHITE] * 3) == [BLACK, WHITE, WHITE]


class TestPorts:
    def test_single_edge(self, single_edge):
        assert single_edge.port_neighbour(0, 1) == 1

    def test_out_of_range(self, single_edge):
        with pytest.raises(MalformedSolutionError, match=r"has ports 1\.\.1, got 2"):
            single_edge.port_neighbour(0, 2)

    @pytest.mark.parametrize("port", [True, 1.0, "1", None])
    def test_a_port_is_an_int(self, single_edge, port):
        # route checks its port through port_neighbour, so both refuse the same values
        for read in (single_edge.port_neighbour, single_edge.route):
            with pytest.raises(MalformedSolutionError, match=rf"^node 0 has ports 1\.\.1, got {port}$"):
                read(0, port)

    def test_has_edge_takes_two_int_ids_in_either_order(self, single_edge):
        assert single_edge.has_edge(0, 1) and single_edge.has_edge(1, 0)
        for u, v in [(0, 0), (0, 2), (-1, 0), (False, 1), (0, 1.0), ("0", 1), ([0], 1), (None, 1)]:
            assert not single_edge.has_edge(u, v)

    def test_p3_port_map(self, p3_wbw):
        assert p3_wbw.port_neighbour(1, 2) == 2
        assert p3_wbw.port_neighbour(1, 1) == 0

    def test_ports_total_and_onto(self, p3_wbw, c4_coloured, k4_oriented):
        for g in (p3_wbw, c4_coloured, k4_oriented):
            for v in g.nodes:
                image = {g.port_neighbour(v, p)
                         for p in range(1, g.degree(v) + 1)}
                expected = {u for e in g.edges for u in e if v in e} - {v}
                assert image == expected

    def test_arrival_port_inverts(self, k4_oriented):
        g = k4_oriented
        for v in g.nodes:
            for p in range(1, g.degree(v) + 1):
                u, back = g.route(v, p)
                assert g.port_neighbour(u, back) == v


class TestJson:
    def test_round_trip_fixture(self, c4_coloured):
        assert loads(dumps(c4_coloured)) == c4_coloured

    def test_round_trip_oriented(self, k4_oriented):
        assert loads(dumps(k4_oriented)) == k4_oriented

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14), st.integers(2, 5), st.integers(0, 10 ** 6),
           st.booleans())
    def test_round_trip_random(self, n, delta, seed, bipartite):
        g = (random_bipartite(n, delta, seed) if bipartite
             else random_weak(n, delta, seed))
        assert loads(dumps(g)) == g

    def test_round_trip_degree_one(self):
        g = random_weak(6, 1, 3)
        assert g.max_degree == 1
        assert loads(dumps(g)) == g

    def test_partial_colours_rejected(self):
        doc = {"nodes": [{"id": 0, "colour": "black"}, {"id": 1, "colour": None}],
               "edges": [{"u": 0, "v": 1, "port_u": 1, "port_v": 1, "dir": None}]}
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    def test_partial_dirs_rejected(self):
        doc = {"nodes": [{"id": 0, "colour": None}, {"id": 1, "colour": None},
                         {"id": 2, "colour": None}],
               "edges": [{"u": 0, "v": 1, "port_u": 1, "port_v": 1, "dir": "uv"},
                         {"u": 1, "v": 2, "port_u": 2, "port_v": 1, "dir": None}]}
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    @pytest.mark.parametrize("nodes, edges", [
        (["a", "b"], []),
        ([True, 0], []),
        ([{"id": True}, {"id": 0}], []),
        ([{"id": "0"}, {"id": 1}], []),
        ({"id": 0}, []),
        ([{"id": 0}, {"id": 1}], [[0, 1, 1, 1]]),
        ([{"id": 0}, {"id": 1}], [{"u": "0", "v": 1, "port_u": 1, "port_v": 1}]),
        ([{"id": 0}, {"id": 1}], [{"u": 0, "v": 1, "port_u": True, "port_v": 1}]),
    ])
    def test_non_object_or_non_integer_documents_rejected(self, nodes, edges):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict({"nodes": nodes, "edges": edges})

    def test_garbage_rejected(self):
        with pytest.raises(GraphFormatError):
            loads("{not json")

    def test_schema_shape(self, single_edge):
        doc = graph_to_json_dict(single_edge)
        assert doc["nodes"][0] == {"id": 0, "colour": "black"}
        assert doc["edges"][0] == {"u": 0, "v": 1, "port_u": 1, "port_v": 1,
                                   "dir": None}


class TestUtilities:
    def test_relabel_keeps_structure(self, p4_coloured):
        g2 = relabel(p4_coloured, [3, 1, 0, 2])
        assert g2.n == 4
        assert sorted(g2.degree(v) for v in g2.nodes) == [1, 1, 2, 2]
        assert g2.colour(3) == p4_coloured.colour(0)

    def test_disjoint_union_offsets(self, single_edge):
        u = disjoint_union(single_edge, single_edge)
        assert u.n == 4
        assert u.edges == {(0, 1), (2, 3)}

    def test_union_requires_matching_attributes(self, single_edge, k4_oriented):
        stripped = with_colours(single_edge, None)
        with pytest.raises(GraphFormatError):
            disjoint_union(single_edge, stripped)
        with pytest.raises(GraphFormatError):
            disjoint_union(stripped, k4_oriented)

    def test_induced_subgraph_preserves_port_order(self, c4_coloured):
        sub, original = induced_subgraph(c4_coloured, [0, 1, 2])
        assert original == (0, 1, 2)
        assert sub.edges == {(0, 1), (1, 2)}
        # node 1 kept both neighbours, so its relative port order survives
        assert [sub.port_neighbour(1, p) for p in (1, 2)] == \
            [c4_coloured.port_neighbour(1, p) for p in (1, 2)]

    def test_induced_subgraph_isolating_a_node_raises(self, p4_coloured):
        with pytest.raises(ValueError, match="node 3 has no neighbours among the kept nodes"):
            induced_subgraph(p4_coloured, [0, 1, 3])
        with pytest.raises(ValueError, match="node 0 has no neighbours among the kept nodes"):
            induced_subgraph(p4_coloured, [0, 2])

    def test_induced_subgraph_rejects_unknown_nodes(self, p4_coloured):
        with pytest.raises(ValueError):
            induced_subgraph(p4_coloured, [-1, 3])
        with pytest.raises(ValueError):
            induced_subgraph(p4_coloured, [2, 3, 4])

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_relabel_refuses_a_node_id_that_is_not_an_int(self, p4_coloured, entry):
        with pytest.raises(ValueError, match="permutation"):
            relabel(p4_coloured, [0, entry, 2, 3])

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_induced_subgraph_refuses_a_node_id_that_is_not_an_int(self, p4_coloured, entry):
        with pytest.raises(ValueError, match="must be ints"):
            induced_subgraph(p4_coloured, [0, entry])

    def test_with_colours_still_checks_colours(self, p4_coloured):
        with pytest.raises(GraphFormatError, match="expected 4 colours, got 3"):
            with_colours(p4_coloured, [BLACK] * 3)
        with pytest.raises(GraphFormatError, match="unknown colour 'red'"):
            with_colours(p4_coloured, ["red"] * 4)


def assert_valid_copy(h):
    """h equals its own rebuild through build_graph, and its routes invert."""
    rebuilt = build_graph(h.n, edge_specs(h), h.colours)
    assert rebuilt == h
    assert rebuilt.edges == h.edges
    assert rebuilt.max_degree == h.max_degree
    for v in h.nodes:
        for p in range(1, h.degree(v) + 1):
            u, back = h.route(v, p)
            assert u == h.port_neighbour(v, p)
            assert h.route(u, back) == (v, p)


def without_node(g, v):
    """Every node but v and the neighbours v would leave isolated."""
    return set(g.nodes) - {v} - {u for u in g.neighbours(v) if g.degree(u) == 1}


DERIVED_SOURCES = (
    [("weak", n, d, s, s % 2 == 0) for n, d, s in
     ((8, 3, 1), (13, 3, 2), (21, 4, 3), (30, 5, 4), (17, 3, 5), (40, 3, 6))]
    + [("bipartite", n, d, s, False) for n, d, s in
       ((8, 3, 1), (15, 3, 2), (24, 4, 3), (31, 5, 4))])


@pytest.mark.parametrize("family, n, delta, seed, oriented", DERIVED_SOURCES)
def test_derived_copies_stay_valid(family, n, delta, seed, oriented):
    g = (random_weak(n, delta, seed, oriented=oriented) if family == "weak"
         else random_bipartite(n, delta, seed))
    rng = random.Random(seed)
    part = partition_abc(g)
    h2 = build_h2(g, part)
    copies = [
        g,
        with_colours(g, random_weak_colouring(g, seed)),
        with_colours(g, None),
        relabel(g, rng.sample(range(n), n)),
        shuffle_ports(g, seed),
        disjoint_union(g, shuffle_ports(g, seed + 1)),
        disjoint_union(with_colours(g, None), with_colours(g, None)),
        induced_subgraph(g, part.a | part.b)[0],
        induced_subgraph(g, without_node(g, rng.randrange(n)))[0],
        h2.graph,
        h2.base,
    ]
    for h in copies:
        assert_valid_copy(h)
    assert relabel(g, range(n)) == g


def oriented_copies(g, seed):
    """(name, copy, source id of each copy node or None for a dummy) per copy of g."""
    rng = random.Random(seed)
    perm = rng.sample(range(g.n), g.n)
    # the ends of half the edges: every kept node keeps the neighbour it was drawn with
    kept = {x for e in rng.sample(sorted(g.edges), g.edge_count // 2) for x in e}
    sub, sub_ids = induced_subgraph(g, kept)
    h2 = build_h2(g, partition_abc(g))
    return [
        ("with_colours", with_colours(g, random_weak_colouring(g, seed)), list(g.nodes)),
        ("relabel", relabel(g, perm), [perm.index(v) for v in g.nodes]),
        ("shuffle_ports", shuffle_ports(g, seed), list(g.nodes)),
        ("disjoint_union", disjoint_union(g, g), list(g.nodes) * 2),
        ("induced_subgraph", sub, list(sub_ids)),
        ("build_h2", h2.graph,
         list(h2.original_ids) + [None] * (h2.graph.n - h2.base.n)),
    ]


@pytest.mark.parametrize("make", [lambda: random_weak(12, 3, 1), lambda: random_weak(30, 3, 2),
                                  lambda: random_weak(25, 4, 3), lambda: random_weak(41, 5, 4),
                                  lambda: numbered_cycle(7).graph],
                         ids=["weak-12-3", "weak-30-3", "weak-25-4", "weak-41-5", "cycle-7"])
def test_every_copy_keeps_each_edges_orientation(make):
    g = make()
    tail = {normalize_edge(u, v): u if d == "uv" else v for u, v, _, _, d in edge_specs(g)}
    for name, h, source in oriented_copies(g, g.n):
        assert h.has_orientation == (h.n > 0), name    # at an even Δ build_h2's core is empty
        for v in h.nodes:
            directions = h.port_directions(v)
            assert len(directions) == h.degree(v), name
            for p, u in enumerate(h.neighbours(v), start=1):
                if source[v] is None:       # a dummy: its one edge comes from its host
                    want = INCOMING
                elif source[u] is None:
                    want = OUTGOING
                else:
                    want = OUTGOING if tail[normalize_edge(source[v], source[u])] == source[v] \
                        else INCOMING
                assert directions[p - 1] == want, (name, v, p)


def eager_tables(g):
    """Reverse table, routes and edge set derived from the port tables alone."""
    rows = [g.neighbours(v) for v in g.nodes]
    port_of = [{u: p for p, u in enumerate(nbrs, start=1)} for nbrs in rows]
    routes = tuple(tuple((u, port_of[u][v]) for u in nbrs) for v, nbrs in enumerate(rows))
    edges = {normalize_edge(v, u) for v, nbrs in enumerate(rows) for u in nbrs}
    return port_of, routes, edges


FIRST_READS = {
    "route": lambda g: g.route(0, 1),
    "routes": lambda g: g.routes(),
    "edge_specs": edge_specs,
}


@pytest.mark.parametrize("first", sorted(FIRST_READS))
@pytest.mark.parametrize("make", [m for _, m in CANONICAL_GRAPHS],
                         ids=[name for name, _ in CANONICAL_GRAPHS])
def test_tables_read_lazily_equal_an_eager_derivation(make, first):
    g = make()
    before = with_colours(g, g.colours)     # copied before any route-table read
    FIRST_READS[first](g)
    after = with_colours(g, g.colours)
    port_of, routes, edges = eager_tables(g)
    arcs = None if not g.has_orientation else frozenset(
        (v, u) for v in g.nodes for u, d in zip(g.neighbours(v), g.port_directions(v))
        if d == OUTGOING)
    eager = Graph(g.colours, tuple(map(g.neighbours, g.nodes)), arcs)
    for h in (g, after, before):
        assert h == g == eager
        assert h.edges == edges == eager.edges and isinstance(h.edges, frozenset)
        assert h.routes() == routes and isinstance(h.routes(), tuple)
        assert h.routes() is h.routes()         # derived once, then kept
        assert edge_specs(h) == edge_specs(eager)
        for v in h.nodes:
            for p, u in enumerate(h.neighbours(v), start=1):
                assert h.route(v, p) == (u, port_of[u][v])


@pytest.mark.parametrize("make", [lambda: random_weak(300, 3, 1),
                                  lambda: random_weak(300, 4, 2, oriented=False),
                                  lambda: random_bipartite(200, 4, 3)],
                         ids=["oriented", "unoriented", "bipartite"])
def test_edge_specs_leave_a_fresh_graph_without_a_route_table(make):
    g = make()
    specs = edge_specs(g)
    assert g._routes is None
    dirs = [g.port_directions(v) for v in g.nodes] if g.has_orientation else None
    from_routes = sorted(
        (u, v, pu, pv, dirs and ("uv" if dirs[u][pu - 1] == OUTGOING else "vu"))
        for u, out in enumerate(g.routes()) for pu, (v, pv) in enumerate(out, start=1)
        if u < v)
    assert specs == from_routes


def lowest_port(g, v, members):
    """The lowest port from v to a member, read off v's port table."""
    return min(g.neighbours(v).index(u) + 1 for u in members)


def children_of(g, parent_port):
    """Each parent's children in a forest whose parents are stored as ports."""
    children = {}
    for v, p in parent_port.items():
        children.setdefault(g.port_neighbour(v, p), set()).add(v)
    return children


@pytest.mark.parametrize("seed", range(8))
def test_lowest_port_choices_on_shuffled_ports(seed):
    """proposal_phase, normalize_stars' case 3 and star_matching each take
    the lowest port from a node to a member of a set; every choice among
    two or more members is counted, and each kind occurs."""
    contested = {"proposal": 0, "case 3": 0, "star matching": 0}
    g = shuffle_ports(random_bipartite(200, 4, seed), seed)
    m = frozenset()
    for i in (1, 2):
        forest = flood_phase(g, m, 2 * i - 1)
        children = children_of(g, forest.parent_port)
        for path in proposal_phase(g, forest):
            for a, b in zip(path, path[1:]):
                assert g.neighbours(a).index(b) + 1 == lowest_port(g, a, children[a])
                contested["proposal"] += len(children[a]) > 1
        m = eliminate_length(g, m, i)
    for delta in (3, 4, 5):
        w = shuffle_ports(random_weak(200, delta, seed), seed)
        parent_port = build_parent_forest(w)
        sf = normalize_stars(w, parent_port)
        children = children_of(w, parent_port)
        for r, kids in children.items():
            if r not in parent_port and kids <= children.keys():     # case 3
                x = w.port_neighbour(r, lowest_port(w, r, kids))
                assert r in sf.stars[x]
                contested["case 3"] += len(kids) > 1
        for root, leaves in sf.stars.items():
            p = lowest_port(w, root, leaves)
            assert normalize_edge(root, w.port_neighbour(root, p)) in star_matching(w, sf)
            contested["star matching"] += len(leaves) > 1
    assert all(contested.values()), contested


def test_only_a_recoloured_copy_shares_the_route_table():
    g = random_weak(30, 3, 0, oriented=True)
    routes = g.routes()
    assert with_colours(g, None).routes() is routes
    assert with_colours(g, random_weak_colouring(g, 1)).routes() is routes
    same_ports = [relabel(g, range(g.n)), induced_subgraph(g, g.nodes)[0]]
    for h in same_ports + [shuffle_ports(g, 0)]:
        assert h.routes() is not routes
    for h in same_ports:
        assert h.routes() == routes
