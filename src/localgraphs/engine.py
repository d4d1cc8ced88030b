"""Synchronous round-based execution of per-node local algorithms.

The engine enforces the information model: a node sees its own degree,
colour, incident orientations and the global degree bound, and exchanges
opaque byte payloads addressed by port.  Sends of round r are delivered at
the start of round r+1 (barrier semantics); node ids never reach the
algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from types import MappingProxyType
from typing import Any, Callable, NamedTuple, Sequence

from .errors import CapabilityError, InvariantError
from .graph import ColouringClass, Graph, classify_colouring

Sends = Mapping[int, bytes]          # port -> payload
Inbox = Mapping[int, bytes]          # port -> payload received this round


class NodeView(NamedTuple):
    """Exactly what one node may legally see before any message arrives.

    Immutable, so the engine hands one view to every node with the same
    degree, colour and port directions.
    """

    degree: int
    max_degree: int
    colour: str | None = None
    port_directions: tuple[str, ...] | None = None


class LocalAlgorithm:
    """Behavioural contract for a deterministic per-node algorithm.

    ``init(view)`` starts a node and ``step(state, inbox, round_no)``
    runs one round of it; each returns the tuple ``(state, sends, wake)``.
    Sends are a mapping from a port, an ``int`` in 1..degree, to a
    ``bytes`` payload.  ``wake`` is an ``int``, a later round in which to
    step the node with an empty inbox, or None to step it only on mail;
    only the node's latest answer counts.  The engine raises
    :class:`InvariantError` on any other result.
    ``finalize`` maps the final state to the node's output.
    ``needs_colouring`` is the weakest colouring the algorithm is
    defined on; the engine refuses a graph below it
    (``check_colouring``) before anything else, so ``init`` and ``step``
    may rely on it.  ``round_budget`` may depend on the degree bound
    only, never on the node count; it is asked for before ``init``, so
    it may refuse a run before round 0.  The engine keeps only the
    state ``step`` returns, so ``step`` may update its argument in place.
    """

    name = "local-algorithm"
    needs_colouring = ColouringClass.NONE

    def round_budget(self, max_degree: int) -> int:
        raise NotImplementedError

    def init(self, view: NodeView) -> tuple[Any, Sends, int | None]:
        raise NotImplementedError

    def step(self, state: Any, inbox: Inbox, round_no: int) -> tuple[Any, Sends, int | None]:
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError


class RunResult(NamedTuple):
    outputs: dict[int, Any]
    rounds_used: int
    max_message_bits: int
    steps: int          # calls of ``step``: n * rounds_used if every node wakes every round


# handed to every node that received nothing; read-only, so no step can alter it
_EMPTY_INBOX: Inbox = MappingProxyType({})


def check_colouring(g: Graph, alg: LocalAlgorithm | type[LocalAlgorithm]) -> None:
    """Refuse a graph whose colouring is weaker than ``alg.needs_colouring``.

    The one colouring refusal: the engine calls it before round 0, and
    each centralized reference calls it on entry with its simulated
    twin's class, so both refuse the same graphs with the same error.
    """
    need = alg.needs_colouring
    if not need:
        return
    if not g.has_colours:
        raise CapabilityError(f"{alg.name} needs node colours")
    if classify_colouring(g) < need:
        raise CapabilityError(f"{alg.name} needs a {need.name.lower()} 2-colouring")


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
                        trace: Callable[[str], None] | None = None) -> RunResult:
    """Run ``alg`` on every node of ``g`` for exactly its round budget.

    Round 0 calls ``init`` at every node; each later round visits only
    its agenda, the nodes with mail and the nodes whose latest ``wake``
    named it, and calls ``step``.  Both go in ascending id order through
    one tail: the result check, the wake check, the send checks and
    delivery, and the trace line.  ``trace`` receives one JSON line per
    call; a node not stepped in a round writes none.  A result that is
    not a ``(state, sends, wake)`` tuple, sends that are not a mapping
    or break its contract, and a wake that is not an ``int`` round after
    the current one raise :class:`InvariantError`.  ``check_colouring``
    refuses a graph below ``alg.needs_colouring`` before round 0.  The
    colouring class, the route table and the node labels the views are
    built from are the graph's own, derived on its first run and kept
    for every later one.
    """
    check_colouring(g, alg)
    delta = degree_bound(g, max_degree)
    budget = alg.round_budget(delta)

    routes = g.routes()
    views: dict[tuple, NodeView] = {}     # one frozen view per distinct label
    states: list[Any] = []                # each node's view, until round 0 steps it
    for label in g.labels():
        view = views.get(label)
        if view is None:
            view = views[label] = NodeView(label[0], delta, *label[1:])
        states.append(view)
    wake: list[int | None] = [0] * g.n      # round 0, then the round each node last asked for
    due: defaultdict[int, list[int]] = defaultdict(list)   # round -> nodes that named it
    inboxes: dict[int, dict[int, bytes]] = {}               # only the nodes with mail
    max_bits = steps = 0
    call = lambda view, inbox, round_no: alg.init(view)     # round 0; later rounds call step

    for round_no in range(budget + 1):
        received, inboxes = inboxes, {}
        agenda = sorted(received.keys() | due.pop(round_no, ())) if round_no else g.nodes
        for v in agenda:
            box = received.get(v)
            if box is None and wake[v] != round_no:
                continue                # a wake-up that a later answer replaced
            result = call(states[v], box or _EMPTY_INBOX, round_no)
            if type(result) is not tuple or len(result) != 3:
                got = f"{len(result)}-tuple" if type(result) is tuple else type(result).__name__
                raise InvariantError(f"{alg.name} returned a {got}, not (state, sends, wake)")
            states[v], sends, w = result
            steps += 1
            if type(sends) is not dict and not isinstance(sends, Mapping):
                raise InvariantError(f"{alg.name} sent a {type(sends).__name__}, "
                                     f"not a port -> payload mapping")
            if w is not None:
                if type(w) is not int:
                    raise InvariantError(f"{alg.name} asked to wake at {w!r}, not a round number")
                if w <= round_no:
                    raise InvariantError(
                        f"{alg.name} asked to wake at round {w} after round {round_no}")
                due[w].append(v)
            wake[v] = w
            if sends:
                out = routes[v]
                for port, payload in sends.items():
                    if not isinstance(payload, bytes):
                        raise InvariantError(f"{alg.name} sent a {type(payload).__name__} "
                                             f"payload, not bytes, on port {port!r}")
                    if type(port) is not int or not 1 <= port <= len(out):
                        raise InvariantError(f"{alg.name} sent on invalid port {port!r}")
                    target, arrival = out[port - 1]
                    mail = inboxes.get(target)
                    if mail is None:
                        inboxes[target] = {arrival: payload}
                    else:
                        mail[arrival] = payload
                    if 8 * len(payload) > max_bits:
                        max_bits = 8 * len(payload)
            if trace is not None:       # byte for byte ``json.dumps(..., sort_keys=True)``
                sent = ", ".join([f'[{p}, "{sends[p].hex()}"]' for p in sorted(sends)])
                trace(f'{{"node": {v}, "round": {round_no}, "sent": [{sent}], '
                      f'"state_digest": "{_digest(states[v]).hex()}"}}')
        call = alg.step

    outputs = {v: alg.finalize(states[v]) for v in g.nodes}
    return RunResult(outputs, rounds_used=budget, max_message_bits=max_bits,
                     steps=steps - g.n)         # round 0's n calls are init's


def _digest(value: Any) -> bytes:
    """The first 8 bytes of the SHA-256 of ``repr(value)``."""
    import hashlib      # loaded by the first traced run, not by every import
    return hashlib.sha256(repr(value).encode()).digest()[:8]


# -- locality ------------------------------------------------------------------

def view_classes(graphs: Sequence[Graph], radius: int) -> list[list[int]]:
    """Class numbers of every node of every graph, shared across ``graphs``.

    Two nodes share a class iff their radius-``radius`` rooted views are
    isomorphic: the same ``labels()`` entry and, port by port, the same
    arrival port and view one radius smaller.  No ``radius``-round
    port-numbering algorithm tells them apart.  Each round refines the
    last, so refinement stops once the class count stops growing; the
    partition is then final, and at most n rounds run.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    tables = [(g.labels(), g.routes()) for g in graphs]

    def numbered(keys_per_graph) -> tuple[list[list[int]], int]:
        number: dict = {}
        return [[number.setdefault(key, len(number)) for key in keys]
                for keys in keys_per_graph], len(number)

    classes, count = numbered(labels for labels, _ in tables)
    for _ in range(radius):
        refined, refined_count = numbered(
            [(cls[v], tuple([(arrival, cls[u]) for u, arrival in out]))
             for v, out in enumerate(routes)]
            for (_, routes), cls in zip(tables, classes))
        if refined_count == count:
            break
        classes, count = refined, refined_count
    return classes

