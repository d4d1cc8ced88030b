"""Engine: barrier semantics, locality, determinism, send validation."""

from __future__ import annotations

import json

import pytest

from localgraphs import (BLACK, WHITE, ColouringClass, LocalAlgorithm, build_graph,
                         classify_colouring, disjoint_union, relabel,
                         run_local_algorithm, with_colours)
from localgraphs.engine import view_classes
from localgraphs.errors import CapabilityError, InvariantError
from localgraphs.generators import (numbered_cycle, random_bipartite, random_weak,
                                    random_weak_colouring, shuffle_ports,
                                    strong_blowup, weak_layered)
from localgraphs.matching import MatchingSchemeAlgorithm
from localgraphs.starforest import StarForestAlgorithm

from conftest import ColourEcho, DenseStar, ascending_ports, path_graph, same_view


class CountEcho(LocalAlgorithm):
    """One round; send a byte everywhere, output how many were received."""

    name = "count-echo"

    def round_budget(self, max_degree):
        return 1

    def init(self, view):
        return 0, {p: b"x" for p in range(1, view.degree + 1)}, None

    def step(self, state, inbox, round_no):
        return len(inbox), {}, None

    def finalize(self, state):
        return state


def test_colour_echo(single_edge):
    result = run_local_algorithm(single_edge, ColourEcho())
    assert result.outputs == {0: "black", 1: "white"}
    assert result.rounds_used == 0


def test_echo_handshake(single_edge):
    result = run_local_algorithm(single_edge, CountEcho())
    assert result.outputs == {0: 1, 1: 1}
    assert result.rounds_used == 1
    assert result.max_message_bits == 8


def test_missing_colour_raises(single_edge):
    from localgraphs.graph import with_colours
    with pytest.raises(CapabilityError, match="colour-echo needs node colours"):
        run_local_algorithm(with_colours(single_edge, None), ColourEcho())


def test_recoloured_copy_never_reports_its_sources_class_or_labels():
    g = random_bipartite(40, 3, 0)
    weak = random_weak_colouring(g, 0)
    assert classify_colouring(with_colours(g, weak)) is ColouringClass.WEAK
    run_local_algorithm(g, MatchingSchemeAlgorithm(2))      # g derives and keeps its tables
    h = with_colours(g, weak)
    with pytest.raises(CapabilityError, match="needs a proper 2-colouring"):
        run_local_algorithm(h, MatchingSchemeAlgorithm(2))
    assert run_local_algorithm(h, ColourEcho()).outputs == dict(enumerate(weak))
    assert run_local_algorithm(g, ColourEcho()).outputs == dict(enumerate(g.colours))
    # and back: a proper recolouring of the weak copy is accepted
    run_local_algorithm(with_colours(h, g.colours), MatchingSchemeAlgorithm(2))


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_BWBW = [BLACK, WHITE, BLACK, WHITE]     # weak but not proper on K4
_UNDER_COLOURED = [
    pytest.param(_BWBW, lambda: MatchingSchemeAlgorithm(1), "needs a proper 2-colouring",
                 id="bwbw-scheme"),
    pytest.param([WHITE] * 4, StarForestAlgorithm, "needs a weak 2-colouring",
                 id="white-star-forest"),
    pytest.param(None, lambda: MatchingSchemeAlgorithm(1), "needs node colours",
                 id="none-scheme"),
    pytest.param(None, StarForestAlgorithm, "needs node colours", id="none-star-forest"),
    # a zero-round algorithm is refused before round 0 as well
    pytest.param([WHITE] * 4, ColourEcho, "needs a weak 2-colouring", id="white-colour-echo"),
    pytest.param(None, ColourEcho, "needs node colours", id="none-colour-echo"),
]


@pytest.mark.parametrize("colours, make, refusal", _UNDER_COLOURED)
def test_colouring_refused_before_round_0(colours, make, refusal):
    alg = make()
    lines = []
    with pytest.raises(CapabilityError, match=f"^{alg.name} {refusal}$"):
        run_local_algorithm(ascending_ports(4, _K4, colours), alg, trace=lines.append)
    assert lines == []


def test_star_forest_output_on_p3(p3_wbw):
    # hand-executed case 3: the black centre ends up the root
    result = run_local_algorithm(p3_wbw, StarForestAlgorithm())
    assert result.outputs[1] == {"parent_port": None, "matched_port": 1}
    assert result.outputs[0]["parent_port"] == 1
    assert result.outputs[2]["parent_port"] == 1
    assert result.rounds_used == 5


def test_determinism(c4_coloured):
    a = run_local_algorithm(c4_coloured, StarForestAlgorithm())
    b = run_local_algorithm(c4_coloured, StarForestAlgorithm())
    assert a.outputs == b.outputs and a.max_message_bits == b.max_message_bits


def test_payload_must_be_bytes(single_edge):
    class Bad(CountEcho):
        def init(self, view):
            return 0, {1: "not-bytes"}, None

    with pytest.raises(InvariantError, match="not bytes"):
        run_local_algorithm(single_edge, Bad())


def test_step_payload_must_be_bytes(single_edge):
    class Bad(CountEcho):
        def step(self, state, inbox, round_no):
            return state, {1: "not-bytes"}, None

    with pytest.raises(InvariantError, match="not bytes"):
        run_local_algorithm(single_edge, Bad())


@pytest.mark.parametrize("phase", ["init", "step"])
@pytest.mark.parametrize("offset", [0, 1], ids=["port-0", "port-deg+1"])
def test_send_outside_port_range(p3_wbw, phase, offset):
    class Bad(CountEcho):
        def init(self, view):
            state, sends, wake = super().init(view)
            if phase == "init":
                sends = {offset * (view.degree + 1): b"x"}
            return view.degree, sends, wake

        def step(self, state, inbox, round_no):
            return state, {offset * (state + 1): b"x"}, None

    with pytest.raises(InvariantError, match="invalid port"):
        run_local_algorithm(p3_wbw, Bad())


@pytest.mark.parametrize("result, message", [
    ((0, {}), r"returned a 2-tuple, not \(state, sends, wake\)"),
    (None, r"returned a NoneType, not \(state, sends, wake\)"),
    ((0, [(1, b"y")], None), "sent a list, not a port -> payload mapping"),
    ((0, {}, "2"), "asked to wake at '2', not a round number"),
    ((0, {}, 2.5), "asked to wake at 2.5, not a round number"),
    ((0, {}, True), "asked to wake at True, not a round number"),
], ids=["pair", "none", "list-of-sends", "str-wake", "float-wake", "bool-wake"])
def test_a_result_of_the_wrong_shape_is_refused(single_edge, result, message):
    """A step result is refused by its shape, not by what reading it raises:
    a float wake would never fire, and a bool one would read as round 0 or 1."""
    class Bad(CountEcho):
        def step(self, state, inbox, round_no):
            return result

    with pytest.raises(InvariantError, match=f"^count-echo {message}$"):
        run_local_algorithm(single_edge, Bad())


def test_trace_lines(single_edge):
    lines = []
    run_local_algorithm(single_edge, CountEcho(), trace=lines.append)
    docs = [json.loads(line) for line in lines]
    assert {(d["round"], d["node"]) for d in docs} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert docs[0]["sent"] == [[1, b"x".hex()]] or docs[0]["sent"] == [[1, "78"]]


class Echo(LocalAlgorithm):
    """Five rounds; leaves send b"x" in round 0, a node answers b"x" with b"y"
    on the same port, and every node outputs the (round, inbox) of its steps.

    Nodes ask to be stepped only on mail, except that leaves ask to wake
    at round ``leaf_wake``, if it is set and still ahead.
    """

    name = "echo"

    def __init__(self, leaf_wake=None):
        self.leaf_wake = leaf_wake

    def round_budget(self, max_degree):
        return 5

    def init(self, view):
        leaf = view.degree == 1
        state = {"leaf": leaf, "steps": []}
        return state, ({1: b"x"} if leaf else {}), self.wake(state, 0)

    def step(self, state, inbox, round_no):
        state["steps"].append((round_no, dict(inbox)))
        sends = {p: b"y" for p, msg in inbox.items() if msg == b"x"}
        return state, sends, self.wake(state, round_no)

    def wake(self, state, round_no):
        wake = self.leaf_wake
        return wake if state["leaf"] and wake is not None and wake > round_no else None

    def finalize(self, state):
        return state["steps"]


def test_nodes_without_mail_are_not_stepped(p3_wbw):
    result = run_local_algorithm(p3_wbw, Echo())
    assert result.outputs == {0: [(2, {1: b"y"})],
                              1: [(1, {1: b"x", 2: b"x"})],
                              2: [(2, {1: b"y"})]}
    assert result.steps == 3 and result.rounds_used == 5


def test_wake_steps_the_node_exactly_then_with_an_empty_inbox(p3_wbw):
    result = run_local_algorithm(p3_wbw, Echo(leaf_wake=4))
    assert result.outputs[0] == result.outputs[2] == [(2, {1: b"y"}), (4, {})]
    assert result.outputs[1] == [(1, {1: b"x", 2: b"x"})]
    assert result.steps == 5


class WakeOnce(LocalAlgorithm):
    """Five rounds and no sends; ``init`` asks to wake at round ``at``, and
    every node outputs the (round, inbox) of its steps."""

    name = "wake-once"

    def __init__(self, at):
        self.at = at

    def round_budget(self, max_degree):
        return 5

    def init(self, view):
        return [], {}, self.at

    def step(self, state, inbox, round_no):
        state.append((round_no, dict(inbox)))
        return state, {}, None

    def finalize(self, state):
        return state


@pytest.mark.parametrize("at", [1, 3, 5])
def test_init_wake_steps_a_node_without_mail_once_then(p3_wbw, at):
    lines = []
    result = run_local_algorithm(p3_wbw, WakeOnce(at), trace=lines.append)
    assert result.outputs == {v: [(at, {})] for v in p3_wbw.nodes}
    assert result.steps == p3_wbw.n
    assert [(d["round"], d["node"]) for d in map(json.loads, lines)] == [
        (0, 0), (0, 1), (0, 2), (at, 0), (at, 1), (at, 2)]


@pytest.mark.parametrize("first", [0, 1], ids=["init", "step"])
def test_wake_must_name_a_later_round(p3_wbw, first):
    class Bad(Echo):
        def wake(self, state, round_no):
            return round_no if round_no >= first else None

    with pytest.raises(InvariantError, match=f"^echo asked to wake at round {first} "
                                             f"after round {first}$"):
        run_local_algorithm(p3_wbw, Bad())


def test_trace_has_a_line_per_init_and_step(p3_wbw):
    lines = []
    run_local_algorithm(p3_wbw, Echo(leaf_wake=4), trace=lines.append)
    docs = [json.loads(line) for line in lines]
    assert [(d["round"], d["node"]) for d in docs] == [
        (0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2), (4, 0), (4, 2)]
    # every step appends to the node's state, so its digest moves
    last = {}
    for d in docs:
        assert d["state_digest"] != last.get(d["node"])
        last[d["node"]] = d["state_digest"]


def test_traced_scheme_run_writes_a_line_per_init_and_step():
    g = random_bipartite(200, 4, 1)
    lines = []
    result = run_local_algorithm(g, MatchingSchemeAlgorithm(3), trace=lines.append)
    assert len(lines) == g.n + result.steps == 11174


def test_steps_count_every_call():
    g = weak_layered(numbered_cycle(4), 3)
    dense = run_local_algorithm(g, DenseStar())
    assert dense.steps == g.n * dense.rounds_used
    g = random_bipartite(200, 4, 1)
    sparse = run_local_algorithm(g, MatchingSchemeAlgorithm(3))
    assert sparse.steps < 0.1 * g.n * sparse.rounds_used


class TestViewEquivalence:
    def test_identity(self, p3_wbw):
        assert same_view(p3_wbw, 0, p3_wbw, 0, 4)

    def test_disjoint_union_copies(self, p3_wbw):
        doubled = disjoint_union(p3_wbw, p3_wbw)
        for v in p3_wbw.nodes:
            assert same_view(p3_wbw, v, doubled, v + p3_wbw.n, 5)

    def test_endpoint_vs_midpoint(self):
        p3 = path_graph("wbw")
        assert not same_view(p3, 0, p3, 1, 1)
        # radius 0 only sees degree and colour: both endpoints agree
        assert same_view(p3, 0, p3, 2, 0)
        # at radius 1 the centre's differing ports tell them apart
        assert not same_view(p3, 0, p3, 2, 1)

    def test_rotation_symmetric_cycle(self, c4_coloured):
        # rotating by two preserves ports and colours
        assert same_view(c4_coloured, 0, c4_coloured, 2, 4)
        assert same_view(c4_coloured, 1, c4_coloured, 3, 4)
        assert not same_view(c4_coloured, 0, c4_coloured, 1, 0)

    def test_colours_respected(self):
        assert not same_view(path_graph("wb"), 0, path_graph("wb"), 1, 0)

    def test_ports_respected(self):
        # same path, the centre's ports swapped
        a = build_graph(3, [(0, 1, 1, 1), (1, 2, 2, 1)], ["white", "black", "white"])
        b = build_graph(3, [(0, 1, 1, 2), (1, 2, 1, 1)], ["white", "black", "white"])
        assert same_view(a, 1, b, 1, 0)
        assert not same_view(a, 0, b, 0, 1)

    def test_orientation_respected(self):
        fwd = build_graph(2, [(0, 1, 1, 1, "uv")])
        rev = build_graph(2, [(0, 1, 1, 1, "vu")])
        assert not same_view(fwd, 0, rev, 0, 0)
        assert same_view(fwd, 0, rev, 1, 3)


def full_depth_classes(graphs, radius):
    """Reference for ``view_classes``: every one of ``radius`` rounds refined."""
    number: dict = {}
    codes = [[number.setdefault(label, len(number)) for label in g.labels()] for g in graphs]
    for _ in range(radius):
        number = {}
        codes = [[number.setdefault((g.labels()[v], tuple((arrival, c[u])
                                                          for u, arrival in g.routes()[v])),
                                    len(number)) for v in g.nodes]
                 for g, c in zip(graphs, codes)]
    return codes


def same_partition(a, b):
    """True iff two class numberings of the same nodes group them alike."""
    pairs = {(x, y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)}
    return len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})


def test_view_classes_match_full_depth_refinement():
    for seed in range(100):
        g = random_weak(12, 3, seed)
        graphs = [g, shuffle_ports(g, seed)]
        for radius in (0, 1, 2, 5, 12):
            classes = view_classes(graphs, radius)
            assert same_partition(classes, full_depth_classes(graphs, radius)), (seed, radius)
    blowup = [strong_blowup(numbered_cycle(8), 3)]
    # nodes 1 and 2 differ in colour only: port by port, their neighbours look alike
    bbww = [build_graph(4, [(0, 1, 1, 2), (1, 2, 1, 2), (2, 3, 1, 2), (3, 0, 1, 2)],
                        [BLACK, BLACK, WHITE, WHITE])]
    for graphs, radius in ((blowup, 243), (bbww, 3)):
        assert same_partition(view_classes(graphs, radius), full_depth_classes(graphs, radius))


def test_view_classes_refuse_a_negative_radius(c4_coloured):
    with pytest.raises(ValueError):
        view_classes([c4_coloured], -1)


def test_relabelling_invariance(c4_coloured):
    # new ids change the order the engine steps nodes in, but no output
    for make in (StarForestAlgorithm, lambda: MatchingSchemeAlgorithm(2)):
        base = run_local_algorithm(c4_coloured, make())
        for perm in ([2, 0, 3, 1], [3, 2, 1, 0]):
            moved = run_local_algorithm(relabel(c4_coloured, perm), make())
            for v in c4_coloured.nodes:
                assert moved.outputs[perm[v]] == base.outputs[v]
