"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from localgraphs import BLACK, WHITE, ColouringClass, LocalAlgorithm, build_graph
from localgraphs.engine import view_classes
from localgraphs.generators import _neighbour_lists
from localgraphs.graph import Graph, port_specs
from localgraphs.starforest import StarForestAlgorithm


def ascending_ports(n: int, pairs, colours=None, directions=None) -> Graph:
    """Build a graph with each node's ports in ascending neighbour order.

    ``directions`` maps every pair, as given, to "uv" or "vu".
    """
    arcs = None if directions is None else {(u, v) if d == "uv" else (v, u)
                                             for (u, v), d in directions.items()}
    return build_graph(n, port_specs(_neighbour_lists(n, pairs), arcs), colours)


def greedy_random_matching(g: Graph, rng, keep: float = 0.7) -> frozenset:
    """Greedy over the edges in random order, taking a free edge with chance ``keep``."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    used, out = set(), set()
    for u, v in edges:
        if u not in used and v not in used and rng.random() < keep:
            used.update((u, v))
            out.add((u, v))
    return frozenset(out)


def path_graph(colour_string: str) -> Graph:
    """Path with one node per character, 'b' black and 'w' white."""
    n = len(colour_string)
    colours = [BLACK if c == "b" else WHITE for c in colour_string]
    return ascending_ports(n, [(i, i + 1) for i in range(n - 1)], colours)


def same_view(g1: Graph, v1: int, g2: Graph, v2: int, radius: int) -> bool:
    """True iff v1 of g1 and v2 of g2 share a ``view_classes`` class at ``radius``."""
    c1, c2 = view_classes([g1, g2], radius)
    return c1[v1] == c2[v2]


class ColourEcho(LocalAlgorithm):
    """Zero rounds; every node outputs its own colour."""

    name = "colour-echo"
    needs_colouring = ColouringClass.WEAK

    def round_budget(self, max_degree):
        return 0

    def init(self, view):
        return view.colour, {}, None

    def step(self, state, inbox, round_no):
        return state, {}, None

    def finalize(self, state):
        return state


class Dense:
    """Mixin for an algorithm: wake every node in every round, whatever it asks."""

    def init(self, view):
        state, sends, _ = super().init(view)
        return state, sends, 1

    def step(self, state, inbox, round_no):
        state, sends, _ = super().step(state, inbox, round_no)
        return state, sends, round_no + 1


class DenseStar(Dense, StarForestAlgorithm):
    """The star forest stepped at every node in every round."""


@pytest.fixture
def single_edge() -> Graph:
    return build_graph(2, [(0, 1, 1, 1)], [BLACK, WHITE])


@pytest.fixture
def p3_wbw() -> Graph:
    # white - black - white with the black node's port 1 toward node 0
    return build_graph(3, [(0, 1, 1, 1), (1, 2, 2, 1)], [WHITE, BLACK, WHITE])


@pytest.fixture
def c4_coloured() -> Graph:
    # clockwise port 1, counterclockwise port 2, alternating colours
    return build_graph(4, [(0, 1, 1, 2), (1, 2, 1, 2), (2, 3, 1, 2), (3, 0, 1, 2)],
                       [BLACK, WHITE, BLACK, WHITE])


@pytest.fixture
def p4_coloured() -> Graph:
    # w1 - b1 - w2 - b2 as in the length-3 augmenting path walkthroughs
    return path_graph("wbwb")


@pytest.fixture
def k4_oriented() -> Graph:
    return build_graph(4, [(0, 1, 1, 1, "uv"), (0, 2, 2, 1, "uv"), (0, 3, 3, 1, "uv"),
                           (1, 2, 2, 2, "uv"), (1, 3, 3, 2, "uv"), (2, 3, 3, 3, "uv")])
