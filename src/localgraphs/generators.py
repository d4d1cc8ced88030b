"""Adversarial instance constructions, extraction procedures, random families.

The deterministic constructions realize the reductions that drive the
lower bounds: powers of a directed cycle, the 2-coloured blowup, the
layered weakly coloured graph, and the fully port-symmetric clique.
Random families provide the bulk test corpora.  Port assignment is part
of every fixture: ascending neighbour id unless the construction
dictates otherwise, or explicitly randomized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (DegenerateParamsError, DeltaTooSmallError, EvenDeltaError,
                     NotInCycleError, NotIndependentError,
                     NotProperlyColouredError, OddCycleLengthError,
                     TooSmallError)
from .graph import (BLACK, WHITE, ColouringClass, Edge, Graph, build_graph,
                    classify_colouring, normalize_edge)
from .oddds import fixup_weak_colouring
from .oracles import validate_matching


@dataclass(frozen=True)
class DirectedCycle:
    """Directed n-cycle; node v's successor is v+1 mod n."""

    n: int
    graph: Graph

    def successor(self, v: int) -> int:
        return (v + 1) % self.n

    def predecessor(self, v: int) -> int:
        return (v - 1) % self.n

    def forward_distance(self, u: int, v: int) -> int:
        """Edges on the directed path from u to v."""
        return (v - u) % self.n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed edges (v, successor(v))."""
        return tuple((v, self.successor(v)) for v in range(self.n))


def numbered_cycle(n: int) -> DirectedCycle:
    """Oriented n-cycle with port 1 toward the successor, port 2 back."""
    if n < 3:
        raise TooSmallError(f"cycle needs at least 3 nodes, got {n}")
    specs = [(v, (v + 1) % n, 1, 2, "uv") for v in range(n)]
    return DirectedCycle(n, build_graph(n, specs))


def _neighbour_lists(n: int, pairs: Iterable[Edge]) -> list[list[int]]:
    """Every node's neighbours in ascending id order."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(lst) for lst in nbrs]


def _port_specs(pairs: Iterable[Edge], nbrs: Sequence[Sequence[int]],
                directions: dict[Edge, tuple[int, int]] | None = None):
    """Edge specs for ``pairs`` that give node v port p toward ``nbrs[v][p-1]``."""
    port = [{u: p for p, u in enumerate(lst, start=1)} for lst in nbrs]
    specs = []
    for u, v in sorted(normalize_edge(a, b) for a, b in pairs):
        direction = None
        if directions is not None:
            direction = "uv" if directions[(u, v)][0] == u else "vu"
        specs.append((u, v, port[u][v], port[v][u], direction))
    return specs


def _ascending_port_specs(n: int, pairs: Sequence[Edge],
                          directions: dict[Edge, tuple[int, int]] | None = None):
    """Edge specs with each node's ports in ascending neighbour-id order."""
    return _port_specs(pairs, _neighbour_lists(n, pairs), directions)


def cycle_power(c: DirectedCycle, k: int) -> Graph:
    """k-th power of the cycle: u ~ v iff their cycle distance is at most k."""
    if k < 1 or c.n <= 2 * k:
        raise DegenerateParamsError(f"need n > 2k >= 2, got n={c.n}, k={k}")
    pairs = []
    directions = {}
    for u in range(c.n):
        for d in range(1, k + 1):
            v = (u + d) % c.n
            pairs.append((u, v))
            directions[normalize_edge(u, v)] = (u, v)
    return build_graph(c.n, _ascending_port_specs(c.n, pairs, directions))


def strong_blowup(c: DirectedCycle, delta: int) -> Graph:
    """Properly 2-coloured delta-regular blowup of the cycle.

    Cycle node v contributes white 2v and black 2v+1; white 2u is
    adjacent to black 2v+1 iff the directed path u -> v has at most
    delta-1 edges (length 0 included, which makes the graph regular).
    """
    if delta < 1 or c.n <= delta:
        raise DegenerateParamsError(f"need n > delta >= 1, got n={c.n}, delta={delta}")
    pairs = []
    for u in range(c.n):
        for d in range(delta):
            pairs.append((2 * u, 2 * ((u + d) % c.n) + 1))
    colours = [WHITE if x % 2 == 0 else BLACK for x in range(2 * c.n)]
    return build_graph(2 * c.n, _ascending_port_specs(2 * c.n, pairs), colours)


def _layer_id(v: int, layer: int, delta: int) -> int:
    return v * (delta + 1) + layer


def weak_layered(c: DirectedCycle, delta: int) -> Graph:
    """Weakly (not properly) 2-coloured layered graph over the cycle.

    Cycle node v contributes black hub v0 and whites v1..v_delta; the
    hub joins its own whites, and layer i copies the cycle.  Blacks have
    degree delta, whites degree 3.
    """
    if c.n % 2 != 0:
        raise OddCycleLengthError(f"need an even cycle, got n={c.n}")
    if delta < 3:
        raise DeltaTooSmallError(f"need delta >= 3, got {delta}")
    pairs = []
    for v in range(c.n):
        for i in range(1, delta + 1):
            pairs.append((_layer_id(v, 0, delta), _layer_id(v, i, delta)))
            pairs.append((_layer_id(v, i, delta),
                          _layer_id(c.successor(v), i, delta)))
    n = (delta + 1) * c.n
    colours = [BLACK if x % (delta + 1) == 0 else WHITE for x in range(n)]
    return build_graph(n, _ascending_port_specs(n, pairs), colours)


def weak_layered_perfect_matching(c: DirectedCycle, delta: int) -> frozenset[Edge]:
    """The explicit perfect matching of (delta+1)n/2 edges in the layered graph.

    Pair the cycle nodes along a perfect matching of the cycle; for each
    matched cycle edge (u, v) take hub-to-top edges at u and v plus the
    layer edges u_i - v_i for i < delta.
    """
    if c.n % 2 != 0:
        raise OddCycleLengthError(f"need an even cycle, got n={c.n}")
    edges = []
    for u in range(0, c.n, 2):
        v = u + 1
        edges.append(normalize_edge(_layer_id(u, 0, delta), _layer_id(u, delta, delta)))
        edges.append(normalize_edge(_layer_id(v, 0, delta), _layer_id(v, delta, delta)))
        for i in range(1, delta):
            edges.append(normalize_edge(_layer_id(u, i, delta), _layer_id(v, i, delta)))
    return frozenset(edges)


def symmetric_complete(delta: int) -> Graph:
    """K_{delta+1} whose ports come from a proper delta-edge-colouring.

    Each colour class is a perfect matching and its edges carry the same
    port number at both ends, so all nodes have pairwise equivalent
    views at every radius.  Needs odd delta.
    """
    if delta < 1 or delta % 2 == 0:
        raise EvenDeltaError(f"K_(delta+1) is delta-edge-colourable only for odd delta, got {delta}")
    n = delta + 1
    specs = []
    for r in range(delta):                      # round-robin 1-factorization
        port = r + 1
        specs.append((n - 1, r, port, port))
        for j in range(1, n // 2):
            u = (r + j) % delta
            v = (r - j) % delta
            specs.append((u, v, port, port))
    return build_graph(n, specs)


# -- extraction procedures -----------------------------------------------------

def matching_to_independent_set(c: DirectedCycle, m) -> frozenset[int]:
    """Tails of the matched directed cycle edges; same size, independent."""
    tails = set()
    for a, b in m:
        if c.forward_distance(a, b) == 1:
            tails.add(a)
        elif c.forward_distance(b, a) == 1:
            tails.add(b)
        else:
            raise NotInCycleError(f"({a}, {b}) is not a cycle edge")
    validate_matching(c.graph, m)
    return frozenset(tails)


def merge_layer_independent_sets(c: DirectedCycle,
                                 sets: Sequence[Iterable[int]]) -> frozenset[int]:
    """Merge per-layer independent sets into one, losing at most a
    (2 * layers - 1) factor.

    Iterate over the layers; adopt every survivor of the current layer,
    then delete it and its cycle neighbours from this and all later
    layers.
    """
    working = []
    for i, s in enumerate(sets):
        s = set(s)
        for v in s:
            if not 0 <= v < c.n:
                raise NotInCycleError(f"{v} is not a cycle node")
            if c.successor(v) in s:
                raise NotIndependentError(f"layer {i} contains adjacent nodes")
        working.append(s)
    result: set[int] = set()
    for i in range(len(working)):
        survivors = sorted(working[i])
        result.update(survivors)
        for v in survivors:
            for w in (c.predecessor(v), v, c.successor(v)):
                for j in range(i, len(working)):
                    working[j].discard(w)
    return frozenset(result)


def trivial_white_independent_set(g: Graph) -> frozenset[int]:
    """All white nodes of a properly 2-coloured graph."""
    if classify_colouring(g) != ColouringClass.PROPER:
        raise NotProperlyColouredError("needs a proper 2-colouring")
    return frozenset(v for v in g.nodes if g.colour(v) == WHITE)


# -- random families --------------------------------------------------------------

# consecutive rejected draws after which the valid pairs are listed outright
_MAX_MISSES = 64


def _fill_random_edges(n: int, delta: int, rng: random.Random,
                       colours: Sequence[str] | None, chosen: set[Edge]) -> list[Edge]:
    """Add random extra edges to a covering set, respecting the degree cap.

    A pair is valid when both ends have degree below ``delta``, it is not
    chosen yet and, with ``colours``, its ends differ in colour.  Each
    added edge is uniform over the pairs valid at that moment: draw ends
    from the lists of open (unsaturated) nodes, one list per colour, and
    reject invalid pairs.  A rejected pair never becomes valid again, so
    after ``_MAX_MISSES`` misses in a row the remaining valid pairs are
    listed once and drawn from that shrinking list.  Stops when the drawn
    number of extra edges is placed or no valid pair is left.
    """
    degree = [0] * n
    for u, v in chosen:
        degree[u] += 1
        degree[v] += 1
    extra = rng.randint(0, max(0, delta * n // 2 - len(chosen)))
    side = [0] * n if colours is None else [int(c == WHITE) for c in colours]
    groups: list[list[int]] = [[] for _ in range(max(side) + 1)]
    slot = [0] * n
    for v in range(n):
        if degree[v] < delta:
            slot[v] = len(groups[side[v]])
            groups[side[v]].append(v)
    first, second = groups[0], groups[-1]     # the same list without colours

    def add(e: Edge) -> None:
        chosen.add(e)
        for x in e:
            degree[x] += 1
            if degree[x] == delta:            # swap-and-pop x from its open list
                group = groups[side[x]]
                last = group.pop()
                if last != x:
                    group[slot[x]] = last
                    slot[last] = slot[x]

    misses = 0
    while extra > 0 and misses < _MAX_MISSES and first and second:
        u = first[rng.randrange(len(first))]
        v = second[rng.randrange(len(second))]
        e = normalize_edge(u, v)
        if u == v or e in chosen:
            misses += 1
            continue
        add(e)
        extra -= 1
        misses = 0
    if extra > 0:
        pairs = [e for e in (normalize_edge(u, v) for u in first for v in second
                             if u < v or first is not second)
                 if e not in chosen]
        while extra > 0 and pairs:
            i = rng.randrange(len(pairs))
            pairs[i], pairs[-1] = pairs[-1], pairs[i]
            u, v = pairs.pop()
            if degree[u] < delta and degree[v] < delta:
                add((u, v))
                extra -= 1
    return sorted(chosen)


def _bipartite_cover(blacks: list[int], whites: list[int],
                     rng: random.Random) -> set[Edge]:
    """One edge per node: the larger side is dealt round-robin to the smaller."""
    blacks, whites = list(blacks), list(whites)
    rng.shuffle(blacks)
    rng.shuffle(whites)
    small, big = sorted((blacks, whites), key=len)
    return {normalize_edge(small[i % len(small)], v) for i, v in enumerate(big)}


def _pairing_cover(n: int, delta: int, rng: random.Random) -> set[Edge]:
    """One edge per node: a random near-perfect pairing."""
    order = list(range(n))
    rng.shuffle(order)
    cover = {normalize_edge(order[i], order[i + 1])
             for i in range(0, n - 1, 2)}
    if n % 2:
        if delta < 2:
            raise DegenerateParamsError(
                f"no degree-{delta} graph without isolated nodes on {n} nodes")
        cover.add(normalize_edge(order[-1], order[0]))
    return cover


def _shuffle_each(nbrs: Sequence[list[int]], seed: int) -> None:
    """Shuffle every node's neighbour list in place, in node order."""
    rng = random.Random(seed)
    for lst in nbrs:
        rng.shuffle(lst)


def shuffle_ports(g: Graph, seed: int) -> Graph:
    """Same graph with freshly randomized port numberings."""
    nbrs = [list(g.neighbours(v)) for v in g.nodes]
    _shuffle_each(nbrs, seed)
    return Graph(g.n, g.colours, g.edges, g.orientation, tuple(map(tuple, nbrs)))


def random_bipartite(n: int, delta: int, seed: int) -> Graph:
    """Random properly 2-coloured graph with random ports, degrees <= delta."""
    if n < 2 or delta < 1:
        raise DegenerateParamsError(f"need n >= 2 and delta >= 1, got {n}, {delta}")
    rng = random.Random(f"bipartite:{n}:{delta}:{seed}")
    lo = -(-n // (delta + 1))   # each side must be able to host the other
    if lo > n - lo:
        raise DegenerateParamsError(
            f"no bipartite degree-{delta} graph without isolated nodes on {n} nodes")
    blacks = set(rng.sample(range(n), rng.randint(lo, n - lo)))
    colours = [BLACK if v in blacks else WHITE for v in range(n)]
    cover = _bipartite_cover(sorted(blacks), sorted(set(range(n)) - blacks), rng)
    pairs = _fill_random_edges(n, delta, rng, colours, cover)
    nbrs = _neighbour_lists(n, pairs)
    _shuffle_each(nbrs, rng.getrandbits(32))
    return build_graph(n, _port_specs(pairs, nbrs), colours)


def random_weak(n: int, delta: int, seed: int, oriented: bool = True) -> Graph:
    """Random weakly 2-coloured graph with random ports and orientation."""
    if n < 2 or delta < 1:
        raise DegenerateParamsError(f"need n >= 2 and delta >= 1, got {n}, {delta}")
    rng = random.Random(f"weak:{n}:{delta}:{seed}")
    pairs = _fill_random_edges(n, delta, rng, None, _pairing_cover(n, delta, rng))
    directions = None
    if oriented:
        directions = {normalize_edge(u, v): (u, v) if rng.random() < 0.5 else (v, u)
                      for u, v in pairs}
    nbrs = _neighbour_lists(n, pairs)
    colours = fixup_weak_colouring(nbrs, [rng.choice((BLACK, WHITE)) for _ in range(n)])
    _shuffle_each(nbrs, rng.getrandbits(32))
    return build_graph(n, _port_specs(pairs, nbrs, directions), colours)


def random_weak_colouring(g: Graph, seed: int) -> list[str]:
    """A random valid weak 2-colouring of g."""
    rng = random.Random(f"colouring:{seed}")
    return fixup_weak_colouring([g.neighbours(v) for v in g.nodes],
                                [rng.choice((BLACK, WHITE)) for _ in range(g.n)])
