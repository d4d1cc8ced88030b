"""Star forests in weakly 2-coloured graphs, and the sets they yield.

Every black node adopts a white parent, every childless white node adopts
a black parent, and the resulting depth-(1-or-2) trees are normalized to
stars.  Star roots form a dominating set of at most half the nodes; one
root-leaf edge per star forms a matching with at least n/(max degree + 1)
edges.  All arbitrary choices resolve to the lowest eligible port index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .engine import Inbox, LocalAlgorithm, NodeView, Sends, run_local_algorithm
from .errors import (InvariantError, MalformedForestError, NotWeaklyColouredError,
                     PortOutOfRangeError)
from .graph import (BLACK, WHITE, ColouringClass, Edge, Graph,
                    classify_colouring, normalize_edge)

ROUND_BUDGET = 5  # colours, black claims, white claims, child status, detach


@dataclass(frozen=True)
class RootedForest:
    """Parent pointers stored as port indices; absent means root."""

    parent_port: dict[int, int]

    def parent_of(self, g: Graph, v: int) -> int | None:
        p = self.parent_port.get(v)
        return None if p is None else g.port_neighbour(v, p)


@dataclass(frozen=True)
class StarForest:
    """Partition of the nodes into depth-1 rooted trees."""

    stars: dict[int, frozenset[int]]   # root -> non-empty leaf set

    @property
    def roots(self) -> frozenset[int]:
        return frozenset(self.stars)


def build_parent_forest(g: Graph) -> RootedForest:
    """Steps 1-2: blacks adopt white parents, childless whites adopt black ones."""
    if classify_colouring(g) < ColouringClass.WEAK:
        raise NotWeaklyColouredError("graph is not weakly 2-coloured")
    parent_port: dict[int, int] = {}
    has_child = [False] * g.n
    for v in g.nodes:
        if g.colour(v) == BLACK:
            p = _lowest_port_with_colour(g, v, WHITE)
            parent_port[v] = p
            has_child[g.port_neighbour(v, p)] = True
    for v in g.nodes:
        if g.colour(v) == WHITE and not has_child[v]:
            parent_port[v] = _lowest_port_with_colour(g, v, BLACK)
    return RootedForest(parent_port)


def _lowest_port_with_colour(g: Graph, v: int, colour: str) -> int:
    for p, u in enumerate(g.neighbours(v), start=1):
        if g.colour(u) == colour:
            return p
    raise NotWeaklyColouredError(f"node {v} has no {colour} neighbour")


def normalize_stars(g: Graph, forest: RootedForest) -> StarForest:
    """Cases 1-3: detach non-leaf children, or reverse one edge at the root."""
    children: dict[int, list[int]] = {v: [] for v in g.nodes}
    roots = []
    for v in g.nodes:
        p = forest.parent_port.get(v)
        if p is None:
            roots.append(v)
        else:
            parent = g.port_neighbour(v, p)
            gp = forest.parent_port.get(parent)
            if gp is not None:
                grand = g.port_neighbour(parent, gp)
                if grand == v:
                    raise MalformedForestError(f"parent cycle at node {v}")
                if forest.parent_port.get(grand) is not None:
                    raise MalformedForestError(f"node {v} sits at depth > 2")
            children[parent].append(v)

    stars: dict[int, frozenset[int]] = {}
    for r in roots:
        kids = children[r]
        if not kids:
            raise MalformedForestError(f"parentless node {r} has no children")
        leaf_kids = [c for c in kids if not children[c]]
        branch_kids = [c for c in kids if children[c]]
        if not branch_kids:                                  # case 1
            stars[r] = frozenset(kids)
        elif leaf_kids:                                      # case 2
            stars[r] = frozenset(leaf_kids)
            for c in branch_kids:
                stars[c] = frozenset(children[c])
        else:                                                # case 3
            x = min(branch_kids, key=lambda c: g.port_of(r, c))
            for c in branch_kids:
                if c != x:
                    stars[c] = frozenset(children[c])
            stars[x] = frozenset(children[x]) | {r}
    _check_star_forest(g, stars)
    return StarForest(stars)


def _check_star_forest(g: Graph, stars: Mapping[int, frozenset[int]]) -> None:
    assigned: set[int] = set()
    for root, leaves in stars.items():
        if not leaves:
            raise MalformedForestError(f"star at {root} has no leaves")
        for leaf in leaves:
            if normalize_edge(root, leaf) not in g.edges:
                raise MalformedForestError(f"leaf {leaf} not adjacent to root {root}")
        members = {root, *leaves}
        if members & assigned:
            raise MalformedForestError("stars overlap")
        assigned |= members
    if assigned != set(g.nodes):
        raise MalformedForestError("stars do not cover every node")


def star_forest(g: Graph) -> StarForest:
    """Centralized reference: build the parent forest, then normalize."""
    return normalize_stars(g, build_parent_forest(g))


def star_dominating_set(sf: StarForest) -> frozenset[int]:
    """Roots of the stars: a dominating set of at most half the nodes."""
    return sf.roots


def star_matching(g: Graph, sf: StarForest) -> frozenset[Edge]:
    """One root-leaf edge per star, chosen through the root's lowest port."""
    edges = []
    for root, leaves in sf.stars.items():
        p = min(g.port_of(root, leaf) for leaf in leaves)
        edges.append(normalize_edge(root, g.port_neighbour(root, p)))
    return frozenset(edges)


# -- per-node implementation -------------------------------------------------

_CLAIM = b"C"
_HAS_KIDS = b"1"
_NO_KIDS = b"0"
_DETACH = b"D"
_REVERSE = b"R"


class StarForestAlgorithm(LocalAlgorithm):
    """5-round port-numbering implementation of the star construction.

    Outputs ``{"parent_port": p-or-None, "matched_port": q-or-None}``;
    a node is a star root iff its parent port is None, and roots report
    the port of their star's matched edge.
    """

    name = "star-forest"
    needs_colour = True

    def round_budget(self, max_degree: int) -> int:
        return ROUND_BUDGET

    def init(self, view: NodeView) -> tuple[Any, Sends]:
        state = {
            "colour": view.colour,
            "degree": view.degree,
            "round": 0,
            "parent_port": None,
            "child_ports": (),
            "leaf_ports": (),
            "is_root": False,
        }
        colour_byte = b"B" if view.colour == BLACK else b"W"
        return state, {p: colour_byte for p in range(1, view.degree + 1)}

    def step(self, state: dict, inbox: Inbox) -> tuple[Any, Sends]:
        state["round"] = r = state["round"] + 1
        black = state["colour"] == BLACK
        sends: dict[int, bytes] = {}

        if r == 1 and black:
            whites = sorted(p for p, msg in inbox.items() if msg == b"W")
            if not whites:
                raise NotWeaklyColouredError("black node has no white neighbour")
            state["parent_port"] = whites[0]
            sends[whites[0]] = _CLAIM
        elif r == 1:
            state["black_ports"] = tuple(
                sorted(p for p, msg in inbox.items() if msg == b"B"))
        elif r == 2 and not black:
            claims = tuple(sorted(p for p, msg in inbox.items() if msg == _CLAIM))
            state["child_ports"] = claims
            if not claims:
                if not state["black_ports"]:
                    raise NotWeaklyColouredError("white node has no black neighbour")
                state["parent_port"] = state["black_ports"][0]
                sends[state["parent_port"]] = _CLAIM
        elif r == 3 and black:
            claims = tuple(sorted(p for p, msg in inbox.items() if msg == _CLAIM))
            state["child_ports"] = claims
            sends[state["parent_port"]] = _HAS_KIDS if claims else _NO_KIDS
        elif r == 4 and not black and state["child_ports"]:
            leaf_kids = sorted(p for p in state["child_ports"] if inbox.get(p) == _NO_KIDS)
            branch_kids = sorted(p for p in state["child_ports"] if inbox.get(p) == _HAS_KIDS)
            if not branch_kids:                               # case 1
                state["is_root"] = True
                state["leaf_ports"] = tuple(state["child_ports"])
            elif leaf_kids:                                   # case 2
                state["is_root"] = True
                state["leaf_ports"] = tuple(leaf_kids)
                for p in branch_kids:
                    sends[p] = _DETACH
            else:                                             # case 3
                x = branch_kids[0]
                state["parent_port"] = x
                sends[x] = _REVERSE
                for p in branch_kids[1:]:
                    sends[p] = _DETACH
        elif r == 5 and black:
            order = next(((p, msg) for p, msg in inbox.items()), None)
            if order is not None:
                p, msg = order
                state["is_root"] = True
                leaf_ports = list(state["child_ports"])
                if msg == _REVERSE:
                    leaf_ports.append(state["parent_port"])
                state["parent_port"] = None
                state["leaf_ports"] = tuple(sorted(leaf_ports))
        return state, sends

    def finalize(self, state: dict) -> dict:
        is_root = state["parent_port"] is None
        matched = min(state["leaf_ports"]) if is_root else None
        return {"parent_port": None if is_root else state["parent_port"],
                "matched_port": matched}


def star_forest_from_outputs(g: Graph, outputs: Mapping[int, dict]) -> StarForest:
    """Reassemble the StarForest from per-node simulation outputs."""
    stars: dict[int, set[int]] = {}
    for v, out in outputs.items():
        if out["parent_port"] is None:
            stars.setdefault(v, set())
    for v, out in outputs.items():
        p = out["parent_port"]
        if p is None:
            continue
        root = g.port_neighbour(v, p)
        if root not in stars:
            raise MalformedForestError(f"node {v} points at non-root {root}")
        stars[root].add(v)
    return StarForest({r: frozenset(leaves) for r, leaves in stars.items()})


def run_star_forest(g: Graph, **kwargs):
    """Simulate the per-node algorithm; returns (StarForest, RunResult).

    A colouring that is not weak is refused before round 0."""
    if g.has_colours and classify_colouring(g) < ColouringClass.WEAK:
        raise NotWeaklyColouredError("star forest needs a weak 2-colouring")
    result = run_local_algorithm(g, StarForestAlgorithm(), **kwargs)
    try:
        sf = star_forest_from_outputs(g, result.outputs)
    except (MalformedForestError, PortOutOfRangeError) as exc:
        raise InvariantError(f"star-forest output: {exc}") from exc
    return sf, result
