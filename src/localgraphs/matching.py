"""Approximation scheme for maximum matching in properly 2-coloured graphs.

For i = 1..k the scheme removes augmenting paths of length 2i-1 by
invoking a three-phase subroutine a fixed number of times: a flooding
phase grows vertex-disjoint augmenting trees from the unmatched black
nodes, a proposal phase picks one root-leaf path per tree, and the
augmenting phase flips all chosen paths in parallel.  The final matching
has no augmenting path of length 2k-1 or less, hence at least k/(k+1)
times the maximum size.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from types import SimpleNamespace
from typing import Any, NamedTuple, Sequence

from .engine import (Inbox, LocalAlgorithm, NodeView, Sends, check_colouring,
                     degree_bound, run_local_algorithm)
from .errors import InvariantError, MalformedSolutionError, TooLargeError
from .graph import BLACK, ColouringClass, Edge, Graph, normalize_edge
# the bench target matching.classify_colouring looks the name up in this module
from .graph import classify_colouring  # noqa: F401
from .oracles import _augmenting_distance, try_bipartition, validate_matching

Matching = frozenset[Edge]
Path = tuple[int, ...]


def invocation_count(max_degree: int, i: int) -> int:
    """How many subroutine invocations remove every length-(2i-1) path."""
    if i < 1:
        raise ValueError(f"path index i must be at least 1, got {i}")
    return max_degree * (max_degree - 1) ** (i - 1)


class AugmentingForest(NamedTuple):
    """Disjoint trees whose every root-leaf path is an augmenting path.

    Roots are unmatched black nodes, leaves are the unmatched white
    endpoints of length-``height`` augmenting paths, and parents are
    stored as port indices.  Branches that reach no leaf are pruned.
    """

    height: int
    parent_port: dict[int, int]
    roots: frozenset[int]
    leaves: frozenset[int]


def flood_phase(g: Graph, m, h: int) -> AugmentingForest:
    """Grow augmenting trees of height ``h`` from the unmatched black nodes.

    Raises InvariantError exactly when an augmenting path shorter than
    ``h`` exists.  In a properly coloured graph an alternating path
    from an unmatched black leaves each black by an unmatched edge and
    each white by its matched edge, and so does the flood; a node joins
    at its first arrival, so the flood is a breadth-first search over
    those directed edges, the layered search of Hopcroft and Karp (1973).
    Each node joins at its alternating distance from the unmatched
    blacks, and the first unmatched white reached is at the length of a
    shortest augmenting path.  Reached before hop ``h``, it raises.
    """
    check_colouring(g, MatchingSchemeAlgorithm)
    if h < 1 or h % 2 == 0:
        raise ValueError(f"path length must be a positive odd number, got {h}")
    return _flood(g, validate_matching(g, m), h)


def _flood(g: Graph, partner: dict[int, int], h: int) -> AugmentingForest:
    """``flood_phase`` for a properly coloured g and a valid matching's partner map."""
    routes = g.routes()
    joined: dict[int, int | None] = {}       # node -> arrival port, None at roots
    leaves: set[int] = set()
    sends: list[tuple[int, int]] = []        # (target, arrival port)
    for b in g.nodes:
        if g.colour(b) == BLACK and b not in partner:
            joined[b] = None
            sends.extend(routes[b])

    for t in range(1, h + 1):
        arrivals: dict[int, list[int]] = {}
        for target, arrival in sends:
            arrivals.setdefault(target, []).append(arrival)
        sends = []
        for v, ports in arrivals.items():
            if v in joined:
                continue
            black = g.colour(v) == BLACK
            mate = partner.get(v)
            if black and (mate is None or len(ports) != 1):
                raise InvariantError(
                    f"flood reached black node {v} other than over one matched edge")
            if mate is None and t < h:
                raise InvariantError(
                    f"flood reached an unmatched white node after {t} < {h} hops")
            if black or mate is None or t < h:      # a matched white drops the last hop
                joined[v] = min(ports)
                if black:
                    sends.extend(r for r in routes[v] if r[0] != mate)
                elif mate is None:
                    leaves.add(v)
                else:
                    sends.append(next(r for r in routes[v] if r[0] == mate))

    parent_port: dict[int, int] = {}
    roots: set[int] = set()
    kept: set[int] = set()
    for leaf in leaves:
        v = leaf
        while v not in kept:
            kept.add(v)
            p = joined[v]
            if p is None:
                roots.add(v)
                break
            parent_port[v] = p
            v = g.port_neighbour(v, p)
    return AugmentingForest(height=h, parent_port=parent_port,
                            roots=frozenset(roots), leaves=frozenset(leaves))


def proposal_phase(g: Graph, forest: AugmentingForest) -> tuple[Path, ...]:
    """One root-leaf path per tree; competing branches lose to a lower port.
    A root without a path of ``forest.height`` edges to a leaf is malformed."""
    if not isinstance(forest, AugmentingForest):
        raise MalformedSolutionError(f"{forest!r} is not an AugmentingForest")
    children: dict[int, set[int]] = {}
    for v, p in forest.parent_port.items():
        children.setdefault(g.port_neighbour(v, p), set()).add(v)
    paths = []
    for root in sorted(forest.roots):
        path, cur = [root], root
        while cur not in forest.leaves and len(path) <= forest.height and cur in children:
            kids = children[cur]
            cur = next(u for u in g.neighbours(cur) if u in kids)
            path.append(cur)
        if len(path) != forest.height + 1 or cur not in forest.leaves:
            raise MalformedSolutionError(
                f"proposal path {path} is not a root-leaf path of {forest.height} edges")
        paths.append(tuple(path))
    return tuple(paths)


def augment_phase(g: Graph, m, paths: Sequence[Path]) -> Matching:
    """Flip every path against the matching; grows it by one edge per path."""
    partner = validate_matching(g, m)
    if not isinstance(paths, Iterable):
        raise MalformedSolutionError(f"paths {paths!r} are not a sequence of paths")
    _augment(g, partner, tuple(paths))      # read once: _augment reads it twice
    return _edges(partner)


def _edges(partner: dict[int, int]) -> Matching:
    """The matching a partner map holds."""
    return frozenset((u, v) for u, v in partner.items() if u < v)


def _augment(g: Graph, partner: dict[int, int], paths: Sequence[Path]) -> None:
    """Check the paths against a valid matching's partner map, then flip them in place."""
    used: set[int] = set()
    for path in paths:
        try:
            nodes = set(path)
            if len(nodes) != len(path):
                raise MalformedSolutionError(f"path {path} repeats a node")
            if len(path) % 2 != 0:
                raise MalformedSolutionError(f"path {path} has even edge count")
            if used & nodes:
                raise MalformedSolutionError(f"path {path} overlaps another path")
            used |= nodes
            if path[0] in partner or path[-1] in partner:
                raise MalformedSolutionError(f"path {path} does not join unmatched endpoints")
            for idx, (a, b) in enumerate(zip(path, path[1:])):
                e = normalize_edge(a, b)
                if not g.has_edge(a, b):
                    raise MalformedSolutionError(f"{e} is not an edge")
                if (partner.get(a) == b) != (idx % 2 == 1):
                    raise MalformedSolutionError(f"path {path} does not alternate at {e}")
        except (TypeError, LookupError):    # reading it failed: not a non-empty sequence of ids
            raise MalformedSolutionError(f"{path!r} is not a path") from None
    size = len(partner)
    for path in paths:      # the new pairs overwrite the old ones of every inner node
        for a, b in zip(path[::2], path[1::2]):
            partner[a], partner[b] = b, a
    if len(partner) != size + 2 * len(paths):
        raise InvariantError("augmentation did not grow the matching by one edge per path")


class SchemeStats(SimpleNamespace):
    """Counters the tests use to pin the invocation schedule.

    Not a ``NamedTuple`` like the other records: ``record`` updates it
    in place.  ``SimpleNamespace`` compares it by its three counters and
    prints them.
    """

    def __init__(self) -> None:
        super().__init__(invocations={}, augmentations=[], sizes=[])

    def record(self, i: int, paths: int, size: int, times: int = 1) -> None:
        self.invocations[i] = self.invocations.get(i, 0) + times
        self.augmentations += [paths] * times
        self.sizes += [size] * times


def eliminate_length(g: Graph, m, i: int, *,
                     max_degree: int | None = None,
                     stats: SchemeStats | None = None,
                     assert_oracle: bool = False) -> Matching:
    """Remove every length-(2i-1) augmenting path: t_i invocations, see ``_eliminate``.

    Refuses an i < 1 with a ValueError, and an i whose schedule
    ``run_matching_scheme(g, i)`` would refuse with its TooLargeError.
    An augmenting path shorter than 2i-1 raises ``flood_phase``'s InvariantError.
    """
    check_colouring(g, MatchingSchemeAlgorithm)
    delta = degree_bound(g, max_degree)
    if i >= 1:      # an i < 1 is invocation_count's ValueError
        scheme_round_budget(delta, i)
    partner = validate_matching(g, m)
    side = try_bipartition(g) if assert_oracle else None    # g is properly coloured
    _eliminate(g, partner, i, delta, stats, side)
    return _edges(partner)


def _eliminate(g: Graph, partner: dict[int, int], i: int, delta: int,
               stats: SchemeStats | None, side: list[int] | None) -> None:
    """``eliminate_length`` on a valid matching's partner map, updated in place.

    Stops after the first invocation that augments no path.  Such an
    invocation leaves ``partner`` unchanged, and an invocation depends
    only on it, g and h, so every later one of the
    same length would be the same no-op.  The stop is also a proof: with
    no shorter augmenting path left, the flood reaches an unmatched white
    node at hop h whenever a length-h augmenting path exists (see
    ``flood_phase``).  ``stats`` still records t_i invocations, the
    skipped ones with no path.  A local node cannot see that the
    matching is final, so the simulated scheme runs all t_i.  ``side``
    is g's bipartition if the caller asserts the oracle, else None.  The
    oracle searches after the first invocation and each one that
    augmented a path, and at the end only when t_i = 0; each search
    validates the matching ``partner`` holds and rebuilds its own map.
    """
    h = 2 * i - 1
    t = invocation_count(delta, i)

    def oracle() -> int | None:
        return _augmenting_distance(g, validate_matching(g, _edges(partner)), side)

    spl = None          # the oracle's answer for the current matching
    for done in range(1, t + 1):
        try:
            paths = proposal_phase(g, _flood(g, partner, h))
            _augment(g, partner, paths)
        except MalformedSolutionError as exc:
            raise InvariantError(f"proposal phase chose bad paths: {exc}") from exc
        if stats is not None:
            stats.record(i, len(paths), len(partner) // 2)
        if side is not None and (paths or done == 1):
            spl = oracle()
            if spl is not None and spl < h:
                raise InvariantError(
                    f"invocation left an augmenting path of length {spl} < {h}")
        if not paths:
            if stats is not None:
                stats.record(i, 0, len(partner) // 2, times=t - done)
            break
    if side is not None:
        if not t:           # no invocation ran
            spl = oracle()
        if spl is not None and spl <= h:
            raise InvariantError(
                f"length-{spl} augmenting path survived elimination at h={h}")


def approximate_maximum_matching(g: Graph, k: int, *,
                                 max_degree: int | None = None,
                                 stats: SchemeStats | None = None,
                                 assert_oracle: bool = False) -> Matching:
    """Matching with no augmenting path of length <= 2k-1; a (1+1/k)-approximation.

    Refuses what ``run_matching_scheme`` refuses, in the engine's order
    and with the same class and message: the colouring, the declared
    degree bound, then k < 1 or a round budget above MAX_SCHEME_ROUNDS.
    """
    check_colouring(g, MatchingSchemeAlgorithm)
    delta = degree_bound(g, max_degree)
    scheme_round_budget(delta, k)
    partner: dict[int, int] = {}
    side = try_bipartition(g) if assert_oracle else None    # one search for every i
    for i in range(1, k + 1):
        _eliminate(g, partner, i, delta, stats, side)
    return _edges(partner)


# -- per-node implementation -----------------------------------------------------

_FLOOD = b"\x01"
_PROPOSE = b"\x02"
_ACCEPT = b"\x03"


# largest round budget the scheme accepts; the budget grows like
# k * delta * (delta-1)^(k-1), and the scheme loops over i = 1..k even
# where t_i is 0, so k is capped by the same number
MAX_SCHEME_ROUNDS = 10**6


@lru_cache(maxsize=64)
def _schedule(max_degree: int, k: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The budget, and (first round, h, first invocation) of each length h = 2i-1.

    Raises TooLargeError when k or the budget exceeds the cap.  The
    loop stops at the first t_i = 0, since every later t_i is 0 too, or
    once the budget passes the cap, so no large power is ever raised.
    """
    cap = MAX_SCHEME_ROUNDS
    lengths = []
    total = invocations = 0
    for i in range(1, min(k, cap) + 1):
        t = invocation_count(max_degree, i)
        if not t:
            break
        lengths.append((total + 1, 2 * i - 1, invocations))
        total += 3 * (2 * i - 1) * t
        invocations += t
        if total > cap:
            break
    if k > cap or total > cap:
        raise TooLargeError(f"matching-scheme with k={k} on degree bound {max_degree} "
                               f"needs more than {cap} rounds")
    return total, tuple(lengths)


def scheme_round_budget(max_degree: int, k: int) -> int:
    """Sum over i = 1..k of 3(2i-1) t_i, refused above MAX_SCHEME_ROUNDS.
    k is checked here, before ``_schedule``'s cache reads True as 1."""
    if type(k) is not int:
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    return _schedule(max_degree, k)[0]


def _position(max_degree: int, k: int, round_no: int) -> tuple[int, int, int]:
    """(h, rho 1..3h, invocation from 0) of a round 1..budget of the schedule."""
    for first, h, invocation in reversed(_schedule(max_degree, k)[1]):
        if first <= round_no:
            done, rho = divmod(round_no - first, 3 * h)
            return h, rho + 1, invocation + done


@lru_cache(maxsize=4)
def _round_facts(max_degree: int, k: int, round_no: int) -> tuple:
    """(position, wake-up flood, wake) of a round 0..budget of the schedule.

    ``position`` is ``_position``'s (h, rho, invocation), None for round
    0; the wake-up flood is due at rho = 3h of every invocation but the
    schedule's last; ``wake`` is what ``init`` (round 0) and ``step``
    return for an unmatched black: rho = 3h of this or the next
    invocation, or None if that is not before the budget's last round.
    Every node stepped in a round asks for the same facts; a few entries
    let runs with different degree bounds alternate.
    """
    budget = scheme_round_budget(max_degree, k)
    position = _position(max_degree, k, round_no)
    flood = position is not None and position[1] == 3 * position[0] and round_no < budget
    wake = None
    if round_no + 1 < budget:
        h, rho, _ = _position(max_degree, k, round_no + 1)
        wake = round_no + 1 + 3 * h - rho   # rho = 3h of this or the next invocation
        if wake >= budget:
            wake = None
    return position, flood, wake


class MatchingSchemeAlgorithm(LocalAlgorithm):
    """Port-numbering implementation of the whole scheme for a fixed k.

    For h = 2i-1 the schedule runs t_i invocations of 3h rounds: h of
    flooding, h of proposals going up, h of acceptances going down.  Each
    node reads its place in it from the round number and the degree
    bound, so phase boundaries need no coordination: ``_round_facts``,
    a pure function of the degree bound, k and the round, gives it, and
    the instance holds only k.  A node is stepped only on mail,
    except that ``init`` and ``step`` wake an unmatched black at rho = 3h
    to send the next wake-up flood; the first step in a new invocation
    resets the per-invocation fields.  ``step`` writes the state dict
    item by item, so its keys and their order are the ones ``init`` and
    that first reset create.  Every message is one byte.  Output is the
    port of the node's matched edge, or None.  ``k`` is checked with the
    round budget, after the engine's colouring check.
    """

    name = "matching-scheme"
    needs_colouring = ColouringClass.PROPER

    def __init__(self, k: int):
        self.k = k

    def round_budget(self, max_degree: int) -> int:
        return scheme_round_budget(max_degree, self.k)

    def init(self, view: NodeView) -> tuple[Any, Sends, int | None]:
        state = {
            "colour": view.colour,
            "degree": view.degree,
            "delta": view.max_degree,
            "invocation": None,     # of joined, parent_port, depth and chosen_child_port
            "matched_port": None,
        }
        if view.colour == BLACK:        # every black starts unmatched: flood invocation 0
            return (state, {p: _FLOOD for p in range(1, view.degree + 1)},
                    _round_facts(view.max_degree, self.k, 0)[2])
        return state, {}, None

    def step(self, state: dict, inbox: Inbox, round_no: int) -> tuple[Any, Sends, int | None]:
        (h, rho, invocation), wakeup_flood, wake = _round_facts(state["delta"], self.k, round_no)
        sends: dict[int, bytes] = {}
        black = state["colour"] == BLACK

        if invocation != state["invocation"]:     # the first step in a new invocation
            root = black and state["matched_port"] is None
            state["invocation"] = invocation
            state["joined"] = root
            state["parent_port"] = None
            state["depth"] = 0 if root else None
            state["chosen_child_port"] = None

        if inbox:
            port = child = None         # the lowest port of a flood and of a proposal
            accepted = False
            for p, msg in inbox.items():
                if msg == _FLOOD:
                    if port is None or p < port:
                        port = p
                elif msg == _PROPOSE:
                    if child is None or p < child:
                        child = p
                elif msg == _ACCEPT:
                    accepted = True

            if port is not None and not state["joined"]:
                matched = state["matched_port"]
                if black and matched is None:
                    raise InvariantError(
                        "flood reached an unmatched black node; floods reach "
                        "blacks only over matched edges")
                if matched is None and rho < h:
                    raise InvariantError(
                        f"flood reached an unmatched white node after {rho} < {h} hops")
                if black or matched is None or rho < h:     # a matched white drops the last hop
                    state["joined"] = True
                    state["parent_port"] = port
                    state["depth"] = rho
                    if black:
                        for p in range(1, state["degree"] + 1):
                            if p != matched:
                                sends[p] = _FLOOD
                    elif matched is None:
                        sends[port] = _PROPOSE
                    else:
                        sends[matched] = _FLOOD

            if child is not None:
                state["chosen_child_port"] = child
                if state["depth"] == 0:
                    state["matched_port"] = child
                    sends[child] = _ACCEPT
                else:
                    sends[state["parent_port"]] = _PROPOSE

            if accepted:
                state["matched_port"] = state["chosen_child_port" if black else "parent_port"]
                if state["chosen_child_port"] is not None and state["depth"] != h:
                    sends[state["chosen_child_port"]] = _ACCEPT

        if not black or state["matched_port"] is not None:
            return state, sends, None
        # every invocation but the schedule's last ends with the next wake-up flood
        if wakeup_flood:
            for p in range(1, state["degree"] + 1):
                sends[p] = _FLOOD
        return state, sends, wake

    def finalize(self, state: dict) -> dict:
        return {"matched_port": state["matched_port"]}


def matching_from_outputs(g: Graph, outputs) -> Matching:
    """Collect the matched edges from per-node outputs; both ends must agree."""
    edges: set[Edge] = set()
    for v, out in outputs.items():
        p = out["matched_port"]
        if p is None:
            continue
        u, back = g.route(v, p)
        if u not in outputs or outputs[u]["matched_port"] != back:
            raise MalformedSolutionError(f"nodes {v} and {u} disagree on their matched edge")
        edges.add(normalize_edge(v, u))
    return frozenset(edges)


def run_matching_scheme(g: Graph, k: int, **kwargs):
    """Simulate the scheme; returns (Matching, RunResult)."""
    result = run_local_algorithm(g, MatchingSchemeAlgorithm(k), **kwargs)
    try:
        matching = matching_from_outputs(g, result.outputs)
    except MalformedSolutionError as exc:
        raise InvariantError(f"matching-scheme output: {exc}") from exc
    return matching, result
