"""Synchronous round-based execution of per-node local algorithms.

The engine enforces the information model: a node sees its own degree,
colour, incident orientations and the global degree bound, and exchanges
opaque byte payloads addressed by port.  Sends of round r are delivered at
the start of round r+1 (barrier semantics); node ids never reach the
algorithm.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

from .errors import MissingInputError
from .graph import Graph, normalize_edge

OUTGOING = "out"
INCOMING = "in"

Sends = Mapping[int, bytes]          # port -> payload
Inbox = Mapping[int, bytes]          # port -> payload received this round


@dataclass(frozen=True)
class NodeView:
    """Exactly what one node may legally see before any message arrives."""

    degree: int
    max_degree: int
    colour: str | None = None
    port_directions: tuple[str, ...] | None = None


class LocalAlgorithm:
    """Behavioural contract for a deterministic per-node algorithm.

    ``init`` maps the node's view to an initial state plus the messages
    sent in round 0; ``step`` consumes one inbox per round; ``finalize``
    maps the final state to the node's output.  ``round_budget`` may
    depend on the degree bound only, never on the node count; it is
    asked for before ``init``, so it may refuse a run before round 0.
    The engine keeps only the state ``step`` returns, so ``step`` may
    update its argument in place.
    """

    name = "local-algorithm"
    needs_colour = False

    def round_budget(self, max_degree: int) -> int:
        raise NotImplementedError

    def init(self, view: NodeView) -> tuple[Any, Sends]:
        raise NotImplementedError

    def step(self, state: Any, inbox: Inbox) -> tuple[Any, Sends]:
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError


@dataclass
class RunResult:
    outputs: dict[int, Any]
    rounds_used: int
    max_message_bits: int


# handed to every node that received nothing; read-only, so no step can alter it
_EMPTY_INBOX: Inbox = MappingProxyType({})


def _port_directions(g: Graph, v: int) -> tuple[str, ...] | None:
    if not g.has_orientation:
        return None
    return tuple(OUTGOING if g.orientation[normalize_edge(v, u)][0] == v else INCOMING
                 for u in g.neighbours(v))


def degree_bound(g: Graph, max_degree: int | None) -> int:
    """The declared degree bound, or the graph's maximum degree if none is declared."""
    delta = g.max_degree if max_degree is None else max_degree
    if delta < g.max_degree:
        raise ValueError(f"declared degree bound {delta} below actual {g.max_degree}")
    return delta


def run_local_algorithm(g: Graph,
                        alg: LocalAlgorithm,
                        *,
                        max_degree: int | None = None,
                        node_order: Sequence[int] | None = None,
                        trace: Callable[[str], None] | None = None) -> RunResult:
    """Run ``alg`` on every node of ``g`` for exactly its round budget.

    ``node_order`` only permutes the engine's evaluation order inside a
    round; outputs are independent of it.  ``trace`` receives one JSON
    line per (round, node).
    """
    if alg.needs_colour and not g.has_colours:
        raise MissingInputError(f"{alg.name} needs node colours")
    delta = degree_bound(g, max_degree)
    budget = alg.round_budget(delta)

    order = list(node_order) if node_order is not None else list(g.nodes)
    if sorted(order) != list(g.nodes):
        raise ValueError("node_order must be a permutation of the nodes")

    # routes[v][p-1] = (neighbour, arrival port) of v's port p
    routes = [tuple(zip(g.neighbours(v),
                        [g.arrival_port(v, p) for p in range(1, g.degree(v) + 1)]))
              for v in g.nodes]
    states: list[Any] = [None] * g.n
    inboxes: list[dict[int, bytes] | None] = [None] * g.n
    max_bits = 0

    def deliver(v: int, sends: Sends) -> None:
        """Validate v's sends and place them in the next round's inboxes."""
        nonlocal max_bits
        out = routes[v]
        for port, payload in sends.items():
            if not isinstance(payload, bytes):
                raise TypeError(f"payload on port {port} is not bytes")
            if not 1 <= port <= len(out):
                raise ValueError(f"send on invalid port {port}")
            target, arrival = out[port - 1]
            box = inboxes[target]
            if box is None:
                inboxes[target] = {arrival: payload}
            else:
                box[arrival] = payload
            if 8 * len(payload) > max_bits:
                max_bits = 8 * len(payload)

    def record(v: int, sends: Sends, round_no: int) -> None:
        trace(json.dumps({
            "round": round_no,
            "node": v,
            "sent": sorted([p, payload.hex()] for p, payload in sends.items()),
            "state_digest": _digest(states[v]),
        }, sort_keys=True))

    for v in order:
        view = NodeView(degree=g.degree(v), max_degree=delta, colour=g.colour(v),
                        port_directions=_port_directions(g, v))
        states[v], sends = alg.init(view)
        if sends:
            deliver(v, sends)
        if trace is not None:
            record(v, sends, 0)

    step = alg.step
    for round_no in range(1, budget + 1):
        received, inboxes = inboxes, [None] * g.n
        for v in order:
            box = received[v]
            states[v], sends = step(states[v], _EMPTY_INBOX if box is None else box)
            if sends:
                deliver(v, sends)
            if trace is not None:
                record(v, sends, round_no)

    outputs = {v: alg.finalize(states[v]) for v in g.nodes}
    return RunResult(outputs=outputs, rounds_used=budget, max_message_bits=max_bits)


def _digest(state: Any) -> str:
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


# -- locality helper -----------------------------------------------------------

def _node_label(g: Graph, v: int):
    return (g.degree(v), g.colour(v), _port_directions(g, v))


def _view_codes(g: Graph, radius: int, intern: dict) -> list[int]:
    """Canonical code of every node's depth-``radius`` view tree.

    Codes are interned in a table shared between graphs, so equal codes
    mean isomorphic port-and-label-preserving rooted views.
    """
    def get(key):
        code = intern.get(key)
        if code is None:
            code = len(intern)
            intern[key] = code
        return code

    labels = [_node_label(g, v) for v in g.nodes]
    codes = [get(("leaf", label)) for label in labels]
    for _ in range(radius):
        codes = [get((labels[v],
                      tuple((g.arrival_port(v, p), codes[g.port_neighbour(v, p)])
                            for p in range(1, g.degree(v) + 1))))
                 for v in g.nodes]
    return codes


def local_views_equivalent(g1: Graph, v1: int, g2: Graph, v2: int, radius: int) -> bool:
    """True iff the radius-r rooted views of v1 and v2 are isomorphic.

    Views respect ports, colours and orientations; two nodes with
    equivalent radius-T views are indistinguishable to any T-round
    port-numbering algorithm.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    intern: dict = {}
    c1 = _view_codes(g1, radius, intern)
    c2 = _view_codes(g2, radius, intern) if g2 is not g1 else c1
    return c1[v1] == c2[v2]
