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

from dataclasses import dataclass, field
from typing import Any, Sequence

from .engine import (Inbox, LocalAlgorithm, NodeView, Sends, degree_bound,
                     run_local_algorithm)
from .errors import (InvariantError, NotAugmentingError, NotProperlyColouredError,
                     PathsNotDisjointError, PortOutOfRangeError, RoundBudgetError,
                     ShorterPathExistsError)
from .graph import (BLACK, WHITE, ColouringClass, Edge, Graph,
                    classify_colouring, normalize_edge)
from .oracles import partner_map, shortest_augmenting_path_length, validate_matching

Matching = frozenset[Edge]
Path = tuple[int, ...]


def invocation_count(max_degree: int, i: int) -> int:
    """How many subroutine invocations remove every length-(2i-1) path."""
    return max_degree * (max_degree - 1) ** (i - 1)


@dataclass(frozen=True)
class AugmentingForest:
    """Disjoint trees whose every root-leaf path is an augmenting path.

    Roots are unmatched black nodes, leaves are the unmatched white
    endpoints of length-``height`` augmenting paths, and parents are
    stored as port indices.  Branches that reach no leaf are pruned.
    """

    height: int
    parent_port: dict[int, int]
    roots: frozenset[int]
    leaves: frozenset[int]


def _check_proper(g: Graph) -> None:
    if classify_colouring(g) != ColouringClass.PROPER:
        raise NotProperlyColouredError("scheme requires a proper 2-colouring")


def flood_phase(g: Graph, m, h: int, *, assert_no_shorter: bool = False) -> AugmentingForest:
    """Grow augmenting trees of height ``h`` from the unmatched black nodes.

    Assumes no augmenting path shorter than ``h`` exists; an unmatched
    white node reached early is a witness against that assumption and
    raises.  With ``assert_no_shorter`` the assumption is checked up
    front with the path-length oracle.
    """
    _check_proper(g)
    if h < 1 or h % 2 == 0:
        raise ValueError(f"path length must be a positive odd number, got {h}")
    edges = validate_matching(g, m)
    if assert_no_shorter:
        spl = shortest_augmenting_path_length(g, edges)
        if spl is not None and spl < h:
            raise ShorterPathExistsError(f"an augmenting path of length {spl} exists")
    return _flood(g, partner_map(edges), h)


def _flood(g: Graph, partner: dict[int, int], h: int) -> AugmentingForest:
    """``flood_phase`` for a properly coloured g and a valid matching's partner map."""
    joined: dict[int, int | None] = {}       # node -> arrival port, None at roots
    leaves: set[int] = set()
    sends: list[tuple[int, int]] = []        # (sender, port)
    for b in g.nodes:
        if g.colour(b) == BLACK and b not in partner:
            joined[b] = None
            sends.extend((b, p) for p in range(1, g.degree(b) + 1))

    for t in range(1, h + 1):
        arrivals: dict[int, list[int]] = {}
        for sender, port in sends:
            target = g.port_neighbour(sender, port)
            arrivals.setdefault(target, []).append(g.arrival_port(sender, port))
        sends = []
        for v, ports in arrivals.items():
            if v in joined:
                continue
            port = min(ports)
            if g.colour(v) == WHITE:
                if v not in partner:
                    if t < h:
                        raise ShorterPathExistsError(
                            f"flood reached an unmatched white node after {t} < {h} hops")
                    joined[v] = port
                    leaves.add(v)
                elif t < h:
                    joined[v] = port
                    sends.append((v, g.port_of(v, partner[v])))
                # matched white on the last hop: message discarded
            else:
                if v not in partner or len(ports) != 1:
                    raise InvariantError(
                        f"flood reached black node {v} other than over one matched edge")
                joined[v] = port
                mp = g.port_of(v, partner[v])
                sends.extend((v, p) for p in range(1, g.degree(v) + 1) if p != mp)

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
    """One root-leaf path per tree; competing branches lose to a lower port."""
    children: dict[int, list[int]] = {}
    for v, p in forest.parent_port.items():
        children.setdefault(g.port_neighbour(v, p), []).append(v)
    paths = []
    for root in sorted(forest.roots):
        path = [root]
        cur = root
        while cur not in forest.leaves:
            kids = children[cur]
            cur = min(kids, key=lambda c: g.port_of(path[-1], c))
            path.append(cur)
        if len(path) != forest.height + 1:
            raise InvariantError(
                f"proposal path {path} does not have {forest.height} edges")
        paths.append(tuple(path))
    return tuple(paths)


def augment_phase(g: Graph, m, paths: Sequence[Path]) -> Matching:
    """Flip every path against the matching; grows it by one edge per path."""
    edges = set(validate_matching(g, m))
    _augment(g, edges, partner_map(edges), paths)
    return frozenset(edges)


def _augment(g: Graph, edges: set[Edge], partner: dict[int, int],
             paths: Sequence[Path]) -> None:
    """Check the paths against a valid matching, then flip them in place.

    ``partner`` is the matching's partner map and is kept in step.
    """
    used: set[int] = set()
    for path in paths:
        nodes = set(path)
        if len(nodes) != len(path):
            raise NotAugmentingError(f"path {path} repeats a node")
        if len(path) % 2 != 0:
            raise NotAugmentingError(f"path {path} has even edge count")
        if used & nodes:
            raise PathsNotDisjointError(f"path {path} overlaps another path")
        used |= nodes
        if path[0] in partner or path[-1] in partner:
            raise NotAugmentingError(f"path {path} does not join unmatched endpoints")
        for idx in range(len(path) - 1):
            e = normalize_edge(path[idx], path[idx + 1])
            if e not in g.edges:
                raise NotAugmentingError(f"{e} is not an edge")
            if (e in edges) != (idx % 2 == 1):
                raise NotAugmentingError(f"path {path} does not alternate at {e}")
    size = len(edges)
    for path in paths:
        for idx in range(len(path) - 1):
            e = normalize_edge(path[idx], path[idx + 1])
            if idx % 2 == 0:
                edges.add(e)
                partner[path[idx]] = path[idx + 1]
                partner[path[idx + 1]] = path[idx]
            else:
                edges.discard(e)
    if len(edges) != size + len(paths):
        raise InvariantError("augmentation did not grow the matching by one edge per path")


@dataclass
class SchemeStats:
    """Counters the tests use to pin the invocation schedule."""

    invocations: dict[int, int] = field(default_factory=dict)
    augmentations: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    def record(self, i: int, paths: int, size: int, times: int = 1) -> None:
        self.invocations[i] = self.invocations.get(i, 0) + times
        self.augmentations += [paths] * times
        self.sizes += [size] * times


def eliminate_length(g: Graph, m, i: int, *,
                     max_degree: int | None = None,
                     stats: SchemeStats | None = None,
                     assert_oracle: bool = False) -> Matching:
    """Remove every length-(2i-1) augmenting path: t_i invocations, see ``_eliminate``."""
    delta = degree_bound(g, max_degree)
    edges = set(validate_matching(g, m))
    _check_proper(g)
    _eliminate(g, edges, partner_map(edges), i, delta, stats, assert_oracle)
    return frozenset(edges)


def _eliminate(g: Graph, edges: set[Edge], partner: dict[int, int], i: int,
               delta: int, stats: SchemeStats | None, assert_oracle: bool) -> None:
    """``eliminate_length`` on a valid matching, updated in place with its partner map.

    Stops after the first invocation that augments no path.  Such an
    invocation leaves ``edges`` and ``partner`` unchanged, and an
    invocation depends only on them, g and h, so every later one of the
    same length would be the same no-op.  The stop is also a proof: with
    no shorter augmenting path left, the flood is a layered alternating
    search (the phase argument of Hopcroft and Karp), so it reaches an
    unmatched white node at hop h whenever a length-h augmenting path
    exists.  ``stats`` still records t_i invocations, the skipped ones
    with no path.  A local node cannot see that the matching is final,
    so the simulated scheme runs all t_i; with ``assert_oracle`` this
    reference does too, and checks each against the oracle.
    """
    h = 2 * i - 1
    t = invocation_count(delta, i)
    for done in range(1, t + 1):
        paths = proposal_phase(g, _flood(g, partner, h))
        try:
            _augment(g, edges, partner, paths)
        except (NotAugmentingError, PathsNotDisjointError) as exc:
            raise InvariantError(f"proposal phase chose bad paths: {exc}") from exc
        if stats is not None:
            stats.record(i, len(paths), len(edges))
        if assert_oracle:
            spl = shortest_augmenting_path_length(g, edges)
            if spl is not None and spl < h:
                raise ShorterPathExistsError(
                    f"invocation left an augmenting path of length {spl} < {h}")
        elif not paths:
            if stats is not None:
                stats.record(i, 0, len(edges), times=t - done)
            break
    if assert_oracle:
        spl = shortest_augmenting_path_length(g, edges)
        if spl is not None and spl <= h:
            raise ShorterPathExistsError(
                f"length-{spl} augmenting path survived elimination at h={h}")


def approximate_maximum_matching(g: Graph, k: int, *,
                                 max_degree: int | None = None,
                                 stats: SchemeStats | None = None,
                                 assert_oracle: bool = False) -> Matching:
    """Matching with no augmenting path of length <= 2k-1; a (1+1/k)-approximation."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_proper(g)
    delta = degree_bound(g, max_degree)
    edges: set[Edge] = set()
    partner: dict[int, int] = {}
    for i in range(1, k + 1):
        _eliminate(g, edges, partner, i, delta, stats, assert_oracle)
    return frozenset(edges)


# -- per-node implementation -----------------------------------------------------

_FLOOD = b"\x01"
_PROPOSE = b"\x02"
_ACCEPT = b"\x03"


def scheme_round_budget(max_degree: int, k: int) -> int:
    """Sum over i = 1..k of 3(2i-1) t_i, in closed form.

    With q = max_degree - 1, the sum over j < k of (2j+1) q^j is
    ((2k-1) q^(k+1) - (2k+1) q^k + q + 1) / (q-1)^2 for q >= 2.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if max_degree <= 1:     # only t_1 = max_degree can be non-zero
        return 3 * max_degree
    q = max_degree - 1
    if q == 1:
        return 3 * max_degree * k * k
    series = ((2 * k - 1) * q ** (k + 1) - (2 * k + 1) * q ** k + q + 1) // (q - 1) ** 2
    return 3 * max_degree * series


# largest round budget the scheme accepts; the budget grows like
# k * delta * (delta-1)^(k-1), and the scheme loops over i = 1..k even
# where t_i is 0, so k is capped by the same number
MAX_SCHEME_ROUNDS = 10**6


def check_round_budget(max_degree: int, k: int) -> None:
    """Raise RoundBudgetError if the budget exceeds MAX_SCHEME_ROUNDS.

    Runs before the first round.  The last term alone,
    3(2k-1) max_degree (max_degree-1)^(k-1), is at least
    2^((k-1)(b-1)) for b the bit length of max_degree-1; that rejects a
    large k before the closed form raises a large power.
    """
    cap = MAX_SCHEME_ROUNDS
    if (k > cap or (k - 1) * ((max_degree - 1).bit_length() - 1) >= cap.bit_length()
            or scheme_round_budget(max_degree, k) > cap):
        raise RoundBudgetError(f"matching-scheme with k={k} on degree bound {max_degree} "
                               f"needs more than {cap} rounds")


class MatchingSchemeAlgorithm(LocalAlgorithm):
    """Port-numbering implementation of the whole scheme for a fixed k.

    For h = 2i-1 the schedule runs t_i invocations of 3h rounds: h of
    flooding, h of proposals going up, h of acceptances going down.  Each
    node counts its own place in it from the degree bound, so phase
    boundaries need no coordination.  Every message is one byte.  Output
    is the port of the node's matched edge, or None.
    """

    name = "matching-scheme"
    needs_colour = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k

    def round_budget(self, max_degree: int) -> int:
        check_round_budget(max_degree, self.k)
        return scheme_round_budget(max_degree, self.k)

    def init(self, view: NodeView) -> tuple[Any, Sends]:
        state = {
            "colour": view.colour,
            "degree": view.degree,
            "delta": view.max_degree,
            "h": 1,
            "rho": 0,
            "left": invocation_count(view.max_degree, 1),
            "matched_port": None,
        }
        self._reset_invocation(state)
        sends: dict[int, bytes] = {}
        if view.colour == BLACK:
            state["joined"] = True
            state["depth"] = 0
            sends = {p: _FLOOD for p in range(1, view.degree + 1)}
        return state, sends

    @staticmethod
    def _reset_invocation(state: dict) -> None:
        state["joined"] = False
        state["parent_port"] = None
        state["depth"] = None
        state["chosen_child_port"] = None

    def step(self, state: dict, inbox: Inbox) -> tuple[Any, Sends]:
        h = state["h"]
        state["rho"] = rho = state["rho"] + 1
        if rho > 3 * h:             # the next invocation starts
            state["rho"] = rho = 1
            state["left"] -= 1
            if not state["left"]:
                state["h"] = h = h + 2
                state["left"] = invocation_count(state["delta"], (h + 1) // 2)
        if not inbox and rho != 1 and rho != 3 * h:
            return state, {}    # a silent mid-invocation round changes only rho
        sends: dict[int, bytes] = {}
        black = state["colour"] == BLACK
        white = not black

        if rho == 1:
            self._reset_invocation(state)
            if black and state["matched_port"] is None:
                state["joined"] = True
                state["depth"] = 0

        if inbox:
            port = min((p for p, msg in inbox.items() if msg == _FLOOD), default=None)
            if port is not None and not state["joined"]:
                matched = state["matched_port"]
                if white and matched is None:
                    if rho < h:
                        raise ShorterPathExistsError(
                            f"flood reached an unmatched white node after {rho} < {h} hops")
                    state.update(joined=True, parent_port=port, depth=rho)
                    sends[port] = _PROPOSE
                elif white:
                    if rho < h:
                        state.update(joined=True, parent_port=port, depth=rho)
                        sends[matched] = _FLOOD
                    # discarded on the last hop
                else:
                    if matched is None:
                        raise InvariantError(
                            "flood reached an unmatched black node; floods reach "
                            "blacks only over matched edges")
                    state.update(joined=True, parent_port=port, depth=rho)
                    for p in range(1, state["degree"] + 1):
                        if p != matched:
                            sends[p] = _FLOOD

            child = min((p for p, msg in inbox.items() if msg == _PROPOSE), default=None)
            if child is not None:
                state["chosen_child_port"] = child
                if state["depth"] == 0:
                    state["matched_port"] = child
                    sends[child] = _ACCEPT
                else:
                    sends[state["parent_port"]] = _PROPOSE

            if any(msg == _ACCEPT for msg in inbox.values()):
                if white:
                    state["matched_port"] = state["parent_port"]
                else:
                    state["matched_port"] = state["chosen_child_port"]
                if state["chosen_child_port"] is not None and state["depth"] != h:
                    sends[state["chosen_child_port"]] = _ACCEPT

        # every invocation but the schedule's last ends with the next wake-up flood
        if rho == 3 * h and black and state["matched_port"] is None:
            i = (h + 1) // 2
            if state["left"] > 1 or (i < self.k and invocation_count(state["delta"], i + 1)):
                for p in range(1, state["degree"] + 1):
                    sends[p] = _FLOOD
        return state, sends

    def finalize(self, state: dict) -> dict:
        return {"matched_port": state["matched_port"]}


def matching_from_outputs(g: Graph, outputs) -> Matching:
    """Collect the matched edges from per-node outputs; both ends must agree."""
    edges: set[Edge] = set()
    for v, out in outputs.items():
        p = out["matched_port"]
        if p is None:
            continue
        u = g.port_neighbour(v, p)
        if outputs[u]["matched_port"] != g.port_of(u, v):
            raise NotAugmentingError(f"nodes {v} and {u} disagree on their matched edge")
        edges.add(normalize_edge(v, u))
    return frozenset(edges)


def run_matching_scheme(g: Graph, k: int, **kwargs):
    """Simulate the scheme; returns (Matching, RunResult)."""
    _check_proper(g)
    result = run_local_algorithm(g, MatchingSchemeAlgorithm(k), **kwargs)
    try:
        matching = matching_from_outputs(g, result.outputs)
    except (NotAugmentingError, PortOutOfRangeError) as exc:
        raise InvariantError(f"matching-scheme output: {exc}") from exc
    return matching, result
