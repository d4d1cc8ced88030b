"""Star forests in weakly 2-coloured graphs, and the sets they yield.

Every black node adopts a white parent, every childless white node adopts
a black parent, and the resulting depth-(1-or-2) trees are normalized to
stars by one rule: every child with children of its own heads its own
star, the root keeps its leaf children as its star, and a root with no
leaf child joins the star of its lowest-port child.  The paper's cases
1-3 are a root with only leaf children, with both kinds and with no leaf
child.  Star roots form a dominating set of at most half the nodes; one
root-leaf edge per star forms a matching with at least n/(max degree + 1)
edges.  All arbitrary choices resolve to the lowest eligible port index.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from typing import Any, NamedTuple

from .engine import (Inbox, LocalAlgorithm, NodeView, Sends, check_colouring,
                     run_local_algorithm)
from .errors import InvariantError, MalformedSolutionError
from .graph import BLACK, WHITE, ColouringClass, Edge, Graph, normalize_edge

ROUND_BUDGET = 5  # colours, black claims, white claims, child status, detach


class StarForest(NamedTuple):
    """Partition of the nodes into depth-1 rooted trees."""

    stars: dict[int, frozenset[int]]   # root -> non-empty leaf set

    @property
    def roots(self) -> frozenset[int]:
        return frozenset(self.stars)


def build_parent_forest(g: Graph) -> dict[int, int]:
    """Steps 1-2: blacks adopt white parents, childless whites adopt black ones.

    The result maps each non-root node to its parent port."""
    check_colouring(g, StarForestAlgorithm)
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
    return parent_port


def _lowest_port_with_colour(g: Graph, v: int, colour: str) -> int:
    """The lowest port toward a ``colour`` node; one exists in a weak colouring."""
    return next(p for p, u in enumerate(g.neighbours(v), start=1) if g.colour(u) == colour)


def normalize_stars(g: Graph, parent_port: Mapping[int, int]) -> StarForest:
    """The module's star rule on ``build_parent_forest``'s parent ports:
    each child with children heads its own star, the root keeps its leaf
    children, and a root with none joins its lowest-port child's star.

    Refuses a bad port, a parent cycle, a node at depth > 2 and a
    childless root; any other map yields a star forest of ``g``, so the
    result is not checked again."""
    if not isinstance(parent_port, Mapping):
        raise MalformedSolutionError(f"parent ports {parent_port!r} are not a mapping")
    children: dict[int, list[int]] = {v: [] for v in g.nodes}
    roots = []
    for v in g.nodes:
        p = parent_port.get(v)
        if p is None:
            roots.append(v)
        else:
            parent = g.port_neighbour(v, p)
            gp = parent_port.get(parent)
            if gp is not None:
                grand = g.port_neighbour(parent, gp)
                if grand == v:
                    raise MalformedSolutionError(f"parent cycle at node {v}")
                if parent_port.get(grand) is not None:
                    raise MalformedSolutionError(f"node {v} sits at depth > 2")
            children[parent].append(v)

    stars: dict[int, frozenset[int]] = {}
    for r in roots:
        kids = children[r]
        if not kids:
            raise MalformedSolutionError(f"parentless node {r} has no children")
        leaves = frozenset(c for c in kids if not children[c])
        if leaves:
            stars[r] = leaves
        stars.update((c, frozenset(children[c])) for c in kids if children[c])
        if not leaves:
            x = next(u for u in g.neighbours(r) if u in kids)
            stars[x] |= {r}
    return StarForest(stars)


def _check_star_forest(g: Graph, stars: Mapping[int, frozenset[int]]) -> None:
    if not isinstance(stars, Mapping):
        raise MalformedSolutionError(f"stars {stars!r} are not a mapping")
    assigned: set[int] = set()
    for root, leaves in stars.items():
        if not isinstance(leaves, Collection):
            raise MalformedSolutionError(f"star at {root} has leaves {leaves!r}, not a node set")
        if not leaves:
            raise MalformedSolutionError(f"star at {root} has no leaves")
        for leaf in leaves:
            if not g.has_edge(root, leaf):
                raise MalformedSolutionError(f"leaf {leaf} not adjacent to root {root}")
        members = {root, *leaves}
        if members & assigned:
            raise MalformedSolutionError("stars overlap")
        assigned |= members
    if assigned != set(g.nodes):
        raise MalformedSolutionError("stars do not cover every node")


def star_forest(g: Graph) -> StarForest:
    """Centralized reference: build the parent forest, then normalize."""
    return normalize_stars(g, build_parent_forest(g))


def star_dominating_set(sf: StarForest) -> frozenset[int]:
    """Roots of the stars: a dominating set of at most half the nodes."""
    return sf.roots


def star_matching(g: Graph, sf: StarForest) -> frozenset[Edge]:
    """One root-leaf edge per star, chosen through the root's lowest port;
    ``MalformedSolutionError`` if ``sf`` is not a star forest of ``g``."""
    if not isinstance(sf, StarForest):
        raise MalformedSolutionError(f"{sf!r} is not a StarForest")
    _check_star_forest(g, sf.stars)
    return frozenset(normalize_edge(root, next(u for u in g.neighbours(root) if u in leaves))
                     for root, leaves in sf.stars.items())


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

    Round 4 is the module's star rule over ports: a root keeps the children
    that reported no children as its leaf ports and detaches the others,
    but with no leaf child it reverses its lowest child port, joining that star.

    A node is stepped only on mail or a requested wake-up.  Every node
    has mail in round 1, since a weakly coloured graph has no isolated
    node.  After it a white acts only in rounds 2 (adopt a parent if no
    black claimed it) and 4 (on its children's status), a black only in
    rounds 3 (report its status) and 5 (on a detach or reverse order).
    So round 1's ``step`` wakes a white at round 2 and a black at round 3,
    where they act whatever their mail; rounds 4 and 5 act only on mail.
    Any other step would change no state and send nothing.
    """

    name = "star-forest"
    needs_colouring = ColouringClass.WEAK

    def round_budget(self, max_degree: int) -> int:
        return ROUND_BUDGET

    def init(self, view: NodeView) -> tuple[Any, Sends, int | None]:
        state = {
            "colour": view.colour,
            "degree": view.degree,
            "parent_port": None,
            "child_ports": (),
            "leaf_ports": (),
        }
        colour_byte = b"B" if view.colour == BLACK else b"W"
        return state, {p: colour_byte for p in range(1, view.degree + 1)}, None

    def step(self, state: dict, inbox: Inbox, round_no: int) -> tuple[Any, Sends, int | None]:
        black = state["colour"] == BLACK
        sends: dict[int, bytes] = {}

        if round_no == 1 and black:
            parent = min(p for p, msg in inbox.items() if msg == b"W")
            state["parent_port"] = parent
            sends[parent] = _CLAIM
        elif round_no == 1:
            state["black_ports"] = tuple(
                sorted(p for p, msg in inbox.items() if msg == b"B"))
        elif round_no == (3 if black else 2):
            claims = tuple(sorted(p for p, msg in inbox.items() if msg == _CLAIM))
            state["child_ports"] = claims
            if black:
                sends[state["parent_port"]] = _HAS_KIDS if claims else _NO_KIDS
            elif not claims:
                state["parent_port"] = state["black_ports"][0]
                sends[state["parent_port"]] = _CLAIM
        elif round_no == 4 and not black and state["child_ports"]:
            kids = state["child_ports"]
            leaves = tuple(p for p in kids if inbox.get(p) == _NO_KIDS)
            state["leaf_ports"] = leaves
            sends.update((p, _DETACH) for p in kids if p not in leaves)
            if not leaves:
                state["parent_port"] = kids[0]
                sends[kids[0]] = _REVERSE
        elif round_no == 5 and black and inbox:        # the parent's detach or reverse order
            leaf_ports = state["child_ports"]
            if _REVERSE in inbox.values():
                leaf_ports += (state["parent_port"],)
            state["parent_port"] = None
            state["leaf_ports"] = tuple(sorted(leaf_ports))
        return state, sends, (3 if black else 2) if round_no == 1 else None

    def finalize(self, state: dict) -> dict:
        parent = state["parent_port"]
        return {"parent_port": parent,
                "matched_port": min(state["leaf_ports"]) if parent is None else None}


def star_forest_from_outputs(g: Graph, outputs: Mapping[int, dict]) -> StarForest:
    """Reassemble the StarForest from per-node simulation outputs, and check it."""
    stars: dict[int, set[int]] = {v: set() for v, out in outputs.items()
                                  if out["parent_port"] is None}
    for v, out in outputs.items():      # a pointer at a non-root makes two stars overlap
        if out["parent_port"] is not None:
            stars.setdefault(g.port_neighbour(v, out["parent_port"]), set()).add(v)
    forest = {r: frozenset(leaves) for r, leaves in stars.items()}
    _check_star_forest(g, forest)
    return StarForest(forest)


def run_star_forest(g: Graph, **kwargs):
    """Simulate the per-node algorithm; returns (StarForest, RunResult)."""
    result = run_local_algorithm(g, StarForestAlgorithm(), **kwargs)
    try:
        sf = star_forest_from_outputs(g, result.outputs)
    except MalformedSolutionError as exc:
        raise InvariantError(f"star-forest output: {exc}") from exc
    return sf, result
