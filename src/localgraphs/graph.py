"""Simple graphs with per-node port numbering, optional orientation and colours.

Node ids are dense integers 0..n-1 used by the harness and the oracles only;
simulated algorithms never see them.  Ports are 1-based: at every node the
ports form a bijection {1..deg(v)} -> neighbours(v), and an orientation
gives each port the direction of the edge behind it.
"""

from __future__ import annotations

import json
from enum import IntEnum
from itertools import repeat
from operator import itemgetter
from collections.abc import Iterable, Mapping
from typing import Sequence

from .errors import CapabilityError, GraphFormatError, MalformedSolutionError

BLACK = "black"
WHITE = "white"
COLOURS = (BLACK, WHITE)

OUTGOING = "out"
INCOMING = "in"

Edge = tuple[int, int]


def opposite(colour: str) -> str:
    return WHITE if colour == BLACK else BLACK


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class ColouringClass(IntEnum):
    """How strong a black/white assignment is; PROPER implies WEAK."""

    NONE = 0
    WEAK = 1
    PROPER = 2


class Graph:
    """Immutable graph held as its port tables.

    ``port_to[v]`` lists v's neighbours in port order, one row per node,
    so ``n`` is its length.  ``directions[v]`` gives, in the same order,
    OUTGOING or INCOMING for the edge behind each port; ``directions`` is
    None on an unoriented graph.  The constructor trusts its arguments.
    It takes the edge set (normalized ``u < v`` pairs) from ``edges`` or
    derives it from ``port_to``.  The route table ((neighbour, arrival
    port) per port, the one derived port table), the node labels and the
    colouring class are derived on their first read and kept.  New
    structure is validated by :func:`build_graph`, which passes the edge
    set its validation built; copies of a valid graph
    (:func:`with_colours`, :func:`relabel`, :func:`disjoint_union`,
    :func:`induced_subgraph`) derive their tables from the source's.
    Each check on outside data has one home: :meth:`port_neighbour` for a
    port, :meth:`has_edge` for an edge, :func:`build_graph` for an edge spec.
    """

    __slots__ = ("n", "colours", "edges", "_port_to", "_directions", "_routes",
                 "_labels", "_colouring", "_max_degree")

    def __init__(self, colours, port_to, directions, edges=None):
        self.n = len(port_to)
        self.colours = colours          # tuple[str, ...] | None
        self._port_to = port_to         # tuple[tuple[int, ...], ...]
        self._directions = directions or None   # tuple[tuple[str, ...], ...] | None
        self._routes = None             # read as `self._routes or self._route_table()`
        self._labels = None             # read as `self._labels or self._label_table()`
        self._colouring = None          # ColouringClass of ``colours``, set by classify_colouring
        self.edges = frozenset((v, u) for v, nbrs in enumerate(port_to)
                               for u in nbrs if v < u) if edges is None else edges
        self._max_degree = max(map(len, port_to), default=0)

    def _route_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Derive and keep the route table: (neighbour, arrival port), per port."""
        # port[u][v] is u's port toward v: transient, the route table is all that is kept
        port = [{u: p for p, u in enumerate(nbrs, start=1)} for nbrs in self._port_to]
        self._routes = tuple([tuple([(u, port[u][v]) for u in nbrs])
                              for v, nbrs in enumerate(self._port_to)])
        return self._routes

    def _label_table(self) -> tuple[tuple, ...]:
        """Derive and keep the node labels: (degree, colour, port directions)."""
        self._labels = tuple(zip(map(len, self._port_to), self.colours or repeat(None),
                                 self._directions or repeat(None)))
        return self._labels

    # -- structure accessors --------------------------------------------

    @property
    def nodes(self) -> range:
        return range(self.n)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._port_to[v])

    def neighbours(self, v: int) -> tuple[int, ...]:
        """Neighbours of v in port order (port p sits at index p-1)."""
        return self._port_to[v]

    def port_neighbour(self, v: int, p: int) -> int:
        """The unique neighbour reached from v through port p, an ``int`` in 1..deg(v)."""
        nbrs = self._port_to[v]
        if type(p) is not int or not 1 <= p <= len(nbrs):
            raise MalformedSolutionError(f"node {v} has ports 1..{len(nbrs)}, got {p}")
        return nbrs[p - 1]

    def route(self, v: int, p: int) -> tuple[int, int]:
        """(neighbour, arrival port) of v's port p: ``routes()[v][p-1]``, checked."""
        self.port_neighbour(v, p)
        return (self._routes or self._route_table())[v][p - 1]

    def has_edge(self, u, v) -> bool:
        """True iff u and v are ``int`` ids joined by an edge; never raises."""
        return type(u) is int and type(v) is int and ((u, v) if u < v else (v, u)) in self.edges

    def routes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``routes()[v][p-1]`` is (neighbour, arrival port) of v's port p."""
        return self._routes or self._route_table()

    def labels(self) -> tuple[tuple[int, str | None, tuple[str, ...] | None], ...]:
        """``labels()[v]`` is (degree, colour, port directions): what v sees of itself."""
        return self._labels or self._label_table()

    def port_directions(self, v: int) -> tuple[str, ...] | None:
        """OUTGOING or INCOMING per port of v, in port order; None if unoriented."""
        return None if self._directions is None else self._directions[v]

    def colour(self, v: int) -> str | None:
        return None if self.colours is None else self.colours[v]

    @property
    def has_colours(self) -> bool:
        return self.colours is not None

    @property
    def has_orientation(self) -> bool:
        return self._directions is not None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.colours == other.colours and self._port_to == other._port_to
                and self._directions == other._directions)

    __hash__ = None  # mutable-free but identity hashing would be a trap

    def __repr__(self):
        return (f"Graph(n={self.n}, m={len(self.edges)}, "
                f"coloured={self.has_colours}, oriented={self.has_orientation})")


def build_graph(node_count: int,
                edges: Iterable[Sequence],
                colours: Sequence[str] | None = None) -> Graph:
    """Validate new structure and build a Graph.

    ``edges`` holds tuples ``(u, v, port_u, port_v)`` or
    ``(u, v, port_u, port_v, direction)`` with direction in
    ``{"uv", "vu", None}``.  Directions must be given for all edges or none.
    Every defect is a GraphFormatError.
    """
    if type(node_count) is not int:
        raise GraphFormatError(f"node_count must be an integer, got {node_count!r}")
    if node_count < 0:
        raise GraphFormatError("node_count must be non-negative")
    colour_list = _normalize_colours(node_count, colours)
    if not isinstance(edges, Iterable):
        raise GraphFormatError(f"edges must be iterable, got {edges!r}")

    edge_set: set[Edge] = set()
    add_edge = edge_set.add
    # port -> neighbour, or -> (neighbour, direction) on an oriented edge
    ports: list[dict] = [{} for _ in range(node_count)]
    directed = 0

    for spec in edges:
        try:
            if len(spec) == 4:
                (u, v, pu, pv), direction = spec, None
            else:
                u, v, pu, pv, direction = spec
        except (TypeError, ValueError):     # no length, or not 4 or 5 fields
            raise GraphFormatError(f"edge spec must have 4 or 5 fields, got {spec!r}") from None
        if not type(u) is type(v) is type(pu) is type(pv) is int:
            raise GraphFormatError(f"edge fields must be integers: {spec!r}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for {node_count} nodes")
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}")
        e = (u, v) if u < v else (v, u)
        if e in edge_set:
            raise GraphFormatError(f"edge {e} listed twice")
        add_edge(e)
        at_u, at_v = ports[u], ports[v]
        if pu in at_u:
            raise GraphFormatError(f"port {pu} reused at node {u}")
        if pv in at_v:
            raise GraphFormatError(f"port {pv} reused at node {v}")
        if direction is None:
            at_u[pu] = v
            at_v[pv] = u
        elif direction == "uv":
            at_u[pu] = (v, OUTGOING)
            at_v[pv] = (u, INCOMING)
            directed += 1
        elif direction == "vu":
            at_u[pu] = (v, INCOMING)
            at_v[pv] = (u, OUTGOING)
            directed += 1
        else:
            raise GraphFormatError(f"direction must be 'uv', 'vu' or None, got {direction!r}")

    if directed not in (0, len(edge_set)):
        raise GraphFormatError("orientation must be given for all edges or none")

    rows = []
    for v, at in enumerate(ports):
        if not at:
            raise GraphFormatError(f"node {v} has no neighbours")
        try:    # deg distinct keys, all found in 1..deg: exactly 1..deg
            rows.append(tuple(map(at.__getitem__, range(1, len(at) + 1))))
        except KeyError:
            raise GraphFormatError(
                f"node {v}: ports {sorted(at)} are not exactly 1..{len(at)}") from None
    if directed:
        port_to, directions = zip(*[zip(*row) for row in rows])
        return Graph(colour_list, port_to, directions, frozenset(edge_set))
    return Graph(colour_list, tuple(rows), None, frozenset(edge_set))


def _normalize_colours(n, colours):
    if colours is None:
        return None
    if not isinstance(colours, Iterable):
        raise GraphFormatError(f"colours must be iterable, got {colours!r}")
    colours = tuple(colours)
    if len(colours) != n:
        raise GraphFormatError(f"expected {n} colours, got {len(colours)}")
    for c in colours:
        if c not in COLOURS:
            raise GraphFormatError(f"unknown colour {c!r}")
    return colours


# -- colouring classification ------------------------------------------------

def classify_colouring(g: Graph) -> ColouringClass:
    """Strongest class the stored colouring satisfies, computed once per graph and kept.

    PROPER: every edge joins opposite colours.  WEAK: every node has at
    least one opposite-coloured neighbour.  NONE otherwise.  To classify
    other colours, classify ``with_colours(g, colours)``.
    """
    if g._colouring is None:
        cols = g.colours
        if cols is None:
            raise CapabilityError("graph has no complete colour assignment")
        if all(cols[u] != cols[v] for u, v in g.edges):
            g._colouring = ColouringClass.PROPER
        elif all(any(cols[u] != cols[v] for u in g.neighbours(v)) for v in g.nodes):
            g._colouring = ColouringClass.WEAK
        else:
            g._colouring = ColouringClass.NONE
    return g._colouring


def fixup_weak_colouring(neighbours: Sequence[Sequence[int]],
                         colours: Sequence[str]) -> list[str]:
    """One sweep flipping every node v whose non-empty ``neighbours[v]`` all share its colour.

    A flip gives all of the node's neighbours an opposite-coloured
    neighbour and never removes one, so a single sweep repairs any
    starting assignment on a graph without isolated nodes.
    """
    out = list(colours)
    for v, nbrs in enumerate(neighbours):
        if nbrs and all(out[u] == out[v] for u in nbrs):
            out[v] = opposite(out[v])
    return out


# -- structural utilities -----------------------------------------------------

def edge_specs(g: Graph) -> list[tuple[int, int, int, int, str | None]]:
    """``(u, v, port_u, port_v, direction)`` per edge, sorted: build_graph's input."""
    dirs = g._directions        # None on an unoriented graph
    # port[v][u] is v's port toward u: transient, so a fresh graph derives no route table
    port = [{u: p for p, u in enumerate(nbrs, start=1)} for nbrs in g._port_to]
    specs = [(u, v, pu, port[v][u], dirs and ("uv" if dirs[u][pu - 1] == OUTGOING else "vu"))
             for u, nbrs in enumerate(g._port_to) for pu, v in enumerate(nbrs, start=1)
             if u < v]
    specs.sort()    # by (u, v), which no two specs share
    return specs


def with_colours(g: Graph, colours: Sequence[str] | None) -> Graph:
    """Copy of g with the colour map replaced (or removed), built from g's tables.

    The copy shares g's port tables, edge set and, if g has derived it,
    route table; otherwise each graph derives its own on its first read.
    The node labels and the colouring class depend on the colours, so
    the copy derives its own.
    """
    h = Graph(_normalize_colours(g.n, colours), g._port_to, g._directions, g.edges)
    h._routes = g._routes
    return h


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Copy of g with node v renamed perm[v]; ports travel with their node."""
    # read once; a mapping is refused, as both its keys and its values look like ids
    perm = list(perm) if isinstance(perm, Iterable) and not isinstance(perm, Mapping) else None
    if perm is None or any(type(x) is not int for x in perm) or sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    port_to = _moved([tuple(perm[u] for u in nbrs) for nbrs in g._port_to], perm)
    return Graph(_moved(g.colours, perm), port_to, _moved(g._directions, perm))


def _moved(rows: Sequence | None, perm: Sequence[int]) -> tuple | None:
    """``rows`` with row v moved to index perm[v]; None stays None."""
    if rows is None:
        return None
    out: list = [None] * len(rows)
    for v, row in enumerate(rows):
        out[perm[v]] = row
    return tuple(out)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's ids are shifted up by g1.n."""
    if g1.has_colours != g2.has_colours:
        raise GraphFormatError("cannot union a coloured and an uncoloured graph")
    if g1.has_orientation != g2.has_orientation:
        raise GraphFormatError("cannot union an oriented and an unoriented graph")
    ids = list(range(g1.n, g1.n + g2.n))  # one int object per node, shared by all tables
    port_to = g1._port_to + tuple(tuple(ids[u] for u in nbrs) for nbrs in g2._port_to)
    colours = g1.colours + g2.colours if g1.has_colours else None
    directions = g1._directions + g2._directions if g1.has_orientation else None
    return Graph(colours, port_to, directions)


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph with dense ids; relative port order is preserved.

    Returns the subgraph and the original id of each new node.  The kept
    node set must leave no node isolated.
    """
    if not isinstance(nodes, Iterable):
        raise ValueError(f"kept nodes {nodes!r} are not a node set")
    kept = list(nodes)      # checked before the set, so an unhashable member is refused
    if not all(type(v) is int and 0 <= v < g.n for v in kept):
        raise ValueError(f"kept nodes must be ints in 0..{g.n - 1}")
    kept = sorted(set(kept))
    new_id = {old: i for i, old in enumerate(kept)}
    port_to = []
    directions = None if g._directions is None else []
    for old in kept:
        nbrs = g._port_to[old]
        ports = [i for i, u in enumerate(nbrs) if u in new_id]   # kept, 0-based
        if not ports:
            raise ValueError(f"node {old} has no neighbours among the kept nodes")
        port_to.append(tuple(new_id[nbrs[i]] for i in ports))
        if directions is not None:
            directions.append(tuple(g._directions[old][i] for i in ports))
    colours = None if g.colours is None else tuple(g.colours[old] for old in kept)
    return (Graph(colours, tuple(port_to), None if directions is None else tuple(directions)),
            tuple(kept))


# -- JSON interchange ----------------------------------------------------------

def graph_to_json_dict(g: Graph) -> dict:
    """The graph's JSON document; every object's keys are inserted in sorted order."""
    nodes = [{"colour": c, "id": v}
             for v, c in enumerate(g.colours or [None] * g.n)]
    edges = [{"dir": d, "port_u": pu, "port_v": pv, "u": u, "v": v}
             for u, v, pu, pv, d in edge_specs(g)]
    return {"edges": edges, "nodes": nodes}


def graph_from_json_dict(doc: dict) -> Graph:
    try:
        node_docs = doc["nodes"]
        edge_docs = doc["edges"]
    except (TypeError, KeyError) as exc:
        raise GraphFormatError(f"missing field: {exc}") from exc
    if not isinstance(node_docs, list):
        raise GraphFormatError("nodes must be a list of objects")
    # one walk over the nodes: colours[i] is node i's colour; an id that is
    # not an integer in 0..n-1 or that repeats is reported after the shape checks
    n = len(node_docs)
    unset = object()
    colours: list = [unset] * n
    ids_ok = True
    for nd in node_docs:
        if not isinstance(nd, dict):
            raise GraphFormatError("nodes must be a list of objects")
        i = nd.get("id")
        if type(i) is int and 0 <= i < n and colours[i] is unset:
            colours[i] = nd.get("colour")
        else:
            ids_ok = False
    if not isinstance(edge_docs, list) or not all(isinstance(d, dict) for d in edge_docs):
        raise GraphFormatError("edges must be a list of objects")
    if not ids_ok:
        raise GraphFormatError("node ids must be exactly 0..n-1")
    uncoloured = colours.count(None)
    if uncoloured == n:
        colours = None
    elif uncoloured:
        raise GraphFormatError("colours must be given for all nodes or none")

    specs = []
    fields = itemgetter("u", "v", "port_u", "port_v")
    for ed in edge_docs:
        try:
            u, v, pu, pv = fields(ed)
        except KeyError as exc:
            raise GraphFormatError(f"bad edge document: {ed!r}") from exc
        specs.append((u, v, pu, pv, ed.get("dir")))
    return build_graph(n, specs, colours)


def dumps(g: Graph) -> str:
    return json.dumps(graph_to_json_dict(g))


def loads(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deeply
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return graph_from_json_dict(doc)


def load(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
