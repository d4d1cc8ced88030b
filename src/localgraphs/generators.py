"""Adversarial instance constructions, extraction procedures, random families.

The deterministic constructions realize the reductions that drive the
lower bounds: powers of a directed cycle, the 2-coloured blowup, the
layered weakly coloured graph, and the fully port-symmetric clique.
Random families provide the bulk test corpora.  Port assignment is part
of every fixture: ascending neighbour id unless the construction
dictates otherwise, or explicitly randomized.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, NamedTuple, Sequence

from .errors import MalformedSolutionError
from .graph import (BLACK, WHITE, Edge, Graph, build_graph, fixup_weak_colouring, normalize_edge,
                    port_specs)
from .oracles import Solution, SolutionKind, validate_matching, verify_solution


class DirectedCycle(NamedTuple):
    """Directed n-cycle; node v's successor is v+1 mod n."""

    n: int

    @property
    def graph(self) -> Graph:
        """The cycle as a graph, built when read; the last one read is kept."""
        return _cycle_graph(self.n)

    def successor(self, v: int) -> int:
        return (v + 1) % self.n

    def predecessor(self, v: int) -> int:
        return (v - 1) % self.n


@functools.lru_cache(maxsize=1)
def _cycle_graph(n: int) -> Graph:
    """Oriented n-cycle with port 1 toward the successor, port 2 back."""
    return build_graph(n, [(v, (v + 1) % n, 1, 2, "uv") for v in range(n)])


def numbered_cycle(n: int) -> DirectedCycle:
    """The directed n-cycle; its graph is built only when read."""
    if type(n) is not int:
        raise ValueError(f"cycle needs an integer node count, got {n!r}")
    if n < 3:
        raise ValueError(f"cycle needs at least 3 nodes, got {n}")
    return DirectedCycle(n)


def _neighbour_lists(n: int, pairs: Iterable[Edge]) -> list[list[int]]:
    """Every node's neighbours in ascending id order."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(lst) for lst in nbrs]


def cycle_power(c: DirectedCycle, k: int) -> Graph:
    """k-th power of the cycle: u ~ v iff their cycle distance is at most k."""
    if k < 1 or c.n <= 2 * k:
        raise ValueError(f"need n > 2k >= 2, got n={c.n}, k={k}")
    arcs = {(u, (u + d) % c.n) for u in range(c.n) for d in range(1, k + 1)}
    return build_graph(c.n, port_specs(_neighbour_lists(c.n, arcs), arcs))


def strong_blowup(c: DirectedCycle, delta: int) -> Graph:
    """Properly 2-coloured delta-regular blowup of the cycle.

    Cycle node v contributes white 2v and black 2v+1; white 2u is
    adjacent to black 2v+1 iff the directed path u -> v has at most
    delta-1 edges (length 0 included, which makes the graph regular).
    """
    if delta < 1 or c.n <= delta:
        raise ValueError(f"need n > delta >= 1, got n={c.n}, delta={delta}")
    pairs = []
    for u in range(c.n):
        for d in range(delta):
            pairs.append((2 * u, 2 * ((u + d) % c.n) + 1))
    colours = [WHITE if x % 2 == 0 else BLACK for x in range(2 * c.n)]
    return build_graph(2 * c.n, port_specs(_neighbour_lists(2 * c.n, pairs)), colours)


def _layer_id(v: int, layer: int, delta: int) -> int:
    return v * (delta + 1) + layer


def _check_weak_layered(c: DirectedCycle, delta: int) -> None:
    if c.n % 2 != 0:
        raise ValueError(f"need an even cycle, got n={c.n}")
    if delta < 3:
        raise ValueError(f"need delta >= 3, got {delta}")


def weak_layered(c: DirectedCycle, delta: int) -> Graph:
    """Weakly (not properly) 2-coloured layered graph over the cycle.

    Cycle node v contributes black hub v0 and whites v1..v_delta; the
    hub joins its own whites, and layer i copies the cycle.  Blacks have
    degree delta, whites degree 3.
    """
    _check_weak_layered(c, delta)
    pairs = []
    for v in range(c.n):
        for i in range(1, delta + 1):
            pairs.append((_layer_id(v, 0, delta), _layer_id(v, i, delta)))
            pairs.append((_layer_id(v, i, delta),
                          _layer_id(c.successor(v), i, delta)))
    n = (delta + 1) * c.n
    colours = [BLACK if x % (delta + 1) == 0 else WHITE for x in range(n)]
    return build_graph(n, port_specs(_neighbour_lists(n, pairs)), colours)


def weak_layered_perfect_matching(c: DirectedCycle, delta: int) -> frozenset[Edge]:
    """The explicit perfect matching of (delta+1)n/2 edges in the layered graph.

    Pair the cycle nodes along a perfect matching of the cycle; for each
    matched cycle edge (u, v) take hub-to-top edges at u and v plus the
    layer edges u_i - v_i for i < delta.
    """
    _check_weak_layered(c, delta)
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
        raise ValueError(f"K_(delta+1) is delta-edge-colourable only for odd delta, got {delta}")
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
    return frozenset(u for u, v in validate_matching(c.graph, m).items() if v == c.successor(u))


def merge_layer_independent_sets(c: DirectedCycle,
                                 sets: Sequence[Iterable[int]]) -> frozenset[int]:
    """Merge per-layer independent sets into one, losing at most a
    (2 * layers - 1) factor.

    Iterate over the layers; adopt every survivor of the current layer,
    then delete it and its cycle neighbours from this and all later
    layers.  A layer is refused with the first violation ``verify_solution``
    reports for it as an independent set of the cycle.
    """
    if not isinstance(sets, Iterable):
        raise MalformedSolutionError(f"layers {sets!r} are not a sequence of node sets")
    working = []
    for i, s in enumerate(sets):
        if not isinstance(s, Iterable):
            raise MalformedSolutionError(f"layer {i} is {s!r}, not a node set")
        s = list(s)     # read once: the check below reads it, and the merge after it
        violations = verify_solution(c.graph, Solution(SolutionKind.INDEPENDENT_SET, s)).violations
        if violations:
            raise MalformedSolutionError(f"layer {i}: {violations[0]}")
        working.append(set(s))
    result: set[int] = set()
    for i in range(len(working)):
        survivors = sorted(working[i])
        result.update(survivors)
        for v in survivors:
            for w in (c.predecessor(v), v, c.successor(v)):
                for j in range(i, len(working)):
                    working[j].discard(w)
    return frozenset(result)


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


def _pairing_cover(n: int, rng: random.Random) -> set[Edge]:
    """One edge per node: a random near-perfect pairing."""
    order = list(range(n))
    rng.shuffle(order)
    cover = {normalize_edge(order[i], order[i + 1])
             for i in range(0, n - 1, 2)}
    if n % 2:
        cover.add(normalize_edge(order[-1], order[0]))
    return cover


def _shuffle_each(nbrs: Sequence[list[int]], seed: int) -> None:
    """Shuffle every node's neighbour list in place, in node order."""
    rng = random.Random(seed)
    for lst in nbrs:
        rng.shuffle(lst)


def shuffle_ports(g: Graph, seed: int) -> Graph:
    """Same graph with freshly randomized port numberings; every edge keeps its orientation."""
    nbrs = [list(row) for row in map(g.neighbours, g.nodes)]
    _shuffle_each(nbrs, seed)
    return Graph(g.colours, tuple(map(tuple, nbrs)), g._arcs, g.edges)


def random_bipartite(n: int, delta: int, seed: int) -> Graph:
    """Random properly 2-coloured graph with random ports, degrees <= delta."""
    if n < 2 or delta < 1:
        raise ValueError(f"need n >= 2 and delta >= 1, got {n}, {delta}")
    rng = random.Random(f"bipartite:{n}:{delta}:{seed}")
    lo = -(-n // (delta + 1))   # each side must be able to host the other
    if lo > n - lo:
        raise ValueError(f"no bipartite degree-{delta} graph without isolated nodes on {n} nodes")
    blacks = set(rng.sample(range(n), rng.randint(lo, n - lo)))
    colours = [BLACK if v in blacks else WHITE for v in range(n)]
    cover = _bipartite_cover(sorted(blacks), sorted(set(range(n)) - blacks), rng)
    pairs = _fill_random_edges(n, delta, rng, colours, cover)
    nbrs = _neighbour_lists(n, pairs)
    _shuffle_each(nbrs, rng.getrandbits(32))
    return build_graph(n, port_specs(nbrs), colours)


def random_weak(n: int, delta: int, seed: int, oriented: bool = True) -> Graph:
    """Random weakly 2-coloured graph with random ports and orientation.

    The number of edges added to the covering pairing is drawn uniformly
    from 0 to delta*n/2 minus the pairing's size, and fewer are placed
    only when no valid pair is left.  So the average degree varies by
    seed, from about 1 to at most delta.
    """
    if n < 2 or delta < 1:
        raise ValueError(f"need n >= 2 and delta >= 1, got {n}, {delta}")
    if n % 2 and delta < 2:
        raise ValueError(f"no degree-{delta} graph without isolated nodes on {n} nodes")
    rng = random.Random(f"weak:{n}:{delta}:{seed}")
    pairs = _fill_random_edges(n, delta, rng, None, _pairing_cover(n, rng))
    arcs = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs} if oriented else None
    nbrs = _neighbour_lists(n, pairs)
    colours = fixup_weak_colouring(nbrs, [rng.choice((BLACK, WHITE)) for _ in range(n)])
    _shuffle_each(nbrs, rng.getrandbits(32))
    return build_graph(n, port_specs(nbrs, arcs), colours)


def random_weak_colouring(g: Graph, seed: int) -> list[str]:
    """A random valid weak 2-colouring of g."""
    rng = random.Random(f"colouring:{seed}")
    return fixup_weak_colouring([g.neighbours(v) for v in g.nodes],
                                [rng.choice((BLACK, WHITE)) for _ in range(g.n)])
