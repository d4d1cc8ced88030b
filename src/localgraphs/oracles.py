"""Exact solvers and verifiers for desk-scale instances.

These are the ground truth every approximation claim is checked against.
Set-search solvers use bitmask branch-and-bound and are capped by a size
limit; the matching solver switches to augmenting-path search on
bipartite graphs, which admits larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import InvalidMatchingError, TooLargeError
from .graph import Edge, Graph, normalize_edge

DEFAULT_LIMIT = 24


def _bit(v: int) -> int:
    return 1 << v


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adch_masks(g: Graph) -> tuple[list[int], list[int]]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= _bit(v)
        adj[v] |= _bit(u)
    closed = [adj[v] | _bit(v) for v in g.nodes]
    return adj, closed


def try_bipartition(g: Graph) -> list[int] | None:
    """A 0/1 side per node if the graph is bipartite, else None."""
    side = [-1] * g.n
    for start in g.nodes:
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        for v in queue:
            for u in g.neighbours(v):
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    return side


# -- minimum dominating set ------------------------------------------------

def brute_min_dominating_set(g: Graph, limit: int = DEFAULT_LIMIT) -> frozenset[int]:
    """A minimum-cardinality dominating set, by branch and bound.

    Searches for a dominating set of size s for s = lower bound, lower
    bound + 1, ... so the first hit is provably optimal.
    """
    if g.n > limit:
        raise TooLargeError(f"{g.n} nodes exceeds limit {limit}")
    if g.n == 0:
        return frozenset()
    _, closed = _adch_masks(g)
    full = (1 << g.n) - 1

    # greedy max-coverage incumbent
    dominated, greedy = 0, []
    while dominated != full:
        best_u = max(g.nodes, key=lambda u: (bin(closed[u] & ~dominated).count("1"), -u))
        greedy.append(best_u)
        dominated |= closed[best_u]

    def lower_bound(undom: int) -> int:
        if not undom:
            return 0
        cover = max(bin(closed[u] & undom).count("1") for u in g.nodes)
        return -(-bin(undom).count("1") // cover)

    chosen: list[int] = []
    found: list[int] | None = None

    def dfs(dominated: int, target: int, seen: dict[int, int]) -> bool:
        nonlocal found
        if dominated == full:
            found = list(chosen)
            return True
        if len(chosen) >= target:
            return False
        prev = seen.get(dominated)
        if prev is not None and prev <= len(chosen):
            return False
        seen[dominated] = len(chosen)
        undom = full & ~dominated
        if len(chosen) + lower_bound(undom) > target:
            return False
        v = (undom & -undom).bit_length() - 1
        cands = sorted(_bits(closed[v]),
                       key=lambda u: -bin(closed[u] & undom).count("1"))
        for u in cands:
            chosen.append(u)
            if dfs(dominated | closed[u], target, seen):
                return True
            chosen.pop()
        return False

    for target in range(lower_bound(full), len(greedy) + 1):
        if target == len(greedy):
            return frozenset(greedy)
        if dfs(0, target, {}):
            return frozenset(found)
    return frozenset(greedy)


# -- maximum matching --------------------------------------------------------

def brute_max_matching(g: Graph, limit: int = DEFAULT_LIMIT) -> frozenset[Edge]:
    """An exact maximum matching.

    Bipartite graphs use augmenting-path search (any size); other graphs
    fall back to memoized branching over the vertices, capped by ``limit``.
    """
    side = try_bipartition(g)
    if side is not None:
        return _bipartite_max_matching(g, side)
    if g.n > limit:
        raise TooLargeError(f"{g.n} nodes exceeds limit {limit} for non-bipartite search")
    return _general_max_matching(g)


def _bipartite_max_matching(g: Graph, side: list[int]) -> frozenset[Edge]:
    """Kuhn's augmenting-path search from each free left node in id order.

    The depth-first search keeps an explicit stack, so a long path cannot
    exceed the recursion limit; neighbours are tried in port order.
    """
    partner: dict[int, int] = {}
    for root in g.nodes:
        if side[root] or root in partner:
            continue
        visited: set[int] = set()
        path = [root]                           # left, right, left, ... nodes
        todo = [iter(g.neighbours(root))]       # one per left node on the path
        while todo:
            for u in todo[-1]:
                if u not in visited:
                    break
            else:                               # a dead end: back up one left node
                todo.pop()
                del path[-2:]
                continue
            visited.add(u)
            path.append(u)
            if u not in partner:                # augmenting: flip the path
                nodes = iter(path)
                for v, w in zip(nodes, nodes):
                    partner[v] = w
                    partner[w] = v
                break
            path.append(partner[u])
            todo.append(iter(g.neighbours(partner[u])))
    return frozenset(normalize_edge(v, u) for v, u in partner.items() if v < u)


def _general_max_matching(g: Graph) -> frozenset[Edge]:
    adj, _ = _adch_masks(g)
    memo: dict[int, int] = {}

    def size(avail: int) -> int:
        while avail:
            v = (avail & -avail).bit_length() - 1
            if adj[v] & avail & ~_bit(v):
                break
            avail &= ~_bit(v)      # vertex with no available neighbour
        else:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        best = size(avail & ~_bit(v))
        for u in _bits(adj[v] & avail):
            best = max(best, 1 + size(avail & ~_bit(v) & ~_bit(u)))
        memo[avail] = best
        return best

    edges: list[Edge] = []
    avail = (1 << g.n) - 1
    target = size(avail)
    while target:
        v = next(u for u in _bits(avail) if adj[u] & avail & ~_bit(u))
        if size(avail & ~_bit(v)) == target:
            avail &= ~_bit(v)
            continue
        for u in _bits(adj[v] & avail):
            if 1 + size(avail & ~_bit(v) & ~_bit(u)) == target:
                edges.append(normalize_edge(v, u))
                avail &= ~_bit(v) & ~_bit(u)
                target -= 1
                break
    return frozenset(edges)


# -- maximum independent set -----------------------------------------------

def brute_max_independent_set(g: Graph, limit: int = DEFAULT_LIMIT) -> frozenset[int]:
    """An exact maximum independent set by branch and bound."""
    if g.n > limit:
        raise TooLargeError(f"{g.n} nodes exceeds limit {limit}")
    if g.n == 0:
        return frozenset()
    adj, closed = _adch_masks(g)
    best: list[int] = []
    chosen: list[int] = []

    def sparse_value(cand: int) -> tuple[int, list[int]]:
        # exact solution when every candidate degree is <= 2 (paths/cycles)
        picked: list[int] = []
        seen = 0
        for v in _bits(cand):
            if _bit(v) & seen:
                continue
            comp = _bit(v)
            queue = [v]
            for w in queue:
                for x in _bits(adj[w] & cand & ~comp):
                    comp |= _bit(x)
                    queue.append(x)
            seen |= comp
            members = sorted(_bits(comp))
            k = len(members)
            degs = {w: bin(adj[w] & comp).count("1") for w in members}
            if all(d == 2 for d in degs.values()) and k >= 3:
                take = k // 2          # cycle
                path = _walk_path(members[0], adj, comp, cycle=True)
            else:
                take = (k + 1) // 2    # path (or isolated vertex)
                start = next(w for w in members if degs[w] <= 1)
                path = _walk_path(start, adj, comp, cycle=False)
            picked.extend(path[0:2 * take:2])
        return len(picked), picked

    def rec(cand: int):
        if len(chosen) + bin(cand).count("1") <= len(best):
            return
        if not cand:
            best[:] = chosen
            return
        degs = [(bin(adj[v] & cand).count("1"), v) for v in _bits(cand)]
        maxdeg, v = max(degs)
        if maxdeg <= 2:
            got, extra = sparse_value(cand)
            if len(chosen) + got > len(best):
                best[:] = chosen + extra
            return
        chosen.append(v)
        rec(cand & ~closed[v])
        chosen.pop()
        rec(cand & ~_bit(v))

    rec((1 << g.n) - 1)
    return frozenset(best)


def _walk_path(start: int, adj: list[int], comp: int, cycle: bool) -> list[int]:
    order = [start]
    prev, cur = -1, start
    while True:
        nxts = [u for u in _bits(adj[cur] & comp) if u != prev]
        if not nxts:
            break
        prev, cur = cur, nxts[0]
        if cycle and cur == start:
            break
        order.append(cur)
    return order


# -- augmenting paths ----------------------------------------------------------

def validate_matching(g: Graph, m: Iterable[Edge]) -> frozenset[Edge]:
    edges = frozenset(normalize_edge(u, v) for u, v in m)
    seen: set[int] = set()
    for u, v in edges:
        if (u, v) not in g.edges:
            raise InvalidMatchingError(f"({u}, {v}) is not an edge")
        if u in seen or v in seen:
            raise InvalidMatchingError(f"node reused by matching at ({u}, {v})")
        seen.update((u, v))
    return edges


def partner_map(m: Iterable[Edge]) -> dict[int, int]:
    """Each matched node's partner."""
    partner: dict[int, int] = {}
    for u, v in m:
        partner[u] = v
        partner[v] = u
    return partner


def shortest_augmenting_path_length(g: Graph, m: Iterable[Edge],
                                    limit: int = DEFAULT_LIMIT) -> int | None:
    """Edge count of a shortest augmenting path for m, or None if m is maximum.

    Bipartite graphs use alternating breadth-first search; other graphs
    fall back to exhaustive alternating-path search, capped by ``limit``.
    """
    partner = partner_map(validate_matching(g, m))
    side = try_bipartition(g)
    if side is not None:
        return _bipartite_shortest_augmenting(g, partner, side)
    if g.n > limit:
        raise TooLargeError(f"{g.n} nodes exceeds limit {limit} for non-bipartite search")
    return _dfs_shortest_augmenting(g, partner)


def _bipartite_shortest_augmenting(g, partner, side):
    dist = {v: 0 for v in g.nodes if side[v] == 0 and v not in partner}
    queue = list(dist)
    for v in queue:
        for u in g.neighbours(v):
            if partner.get(v) == u:
                continue
            if u not in partner:
                return 2 * dist[v] + 1
            w = partner[u]
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return None


def _dfs_shortest_augmenting(g, partner):
    best: int | None = None
    unmatched = [v for v in g.nodes if v not in partner]
    visited: set[int] = set()

    def dfs(v: int, length: int, want_matched: bool):
        nonlocal best
        if best is not None and length >= best:
            return
        for u in g.neighbours(v):
            if u in visited:
                continue
            is_matched = partner.get(v) == u
            if is_matched != want_matched:
                continue
            if not want_matched and u not in partner:
                best = length + 1
                continue
            if u in partner:
                visited.add(u)
                dfs(u, length + 1, not want_matched)
                visited.discard(u)

    for a in unmatched:
        visited = {a}
        dfs(a, 0, want_matched=False)
        if best == 1:
            return 1
    return best


# -- verification ----------------------------------------------------------------

class SolutionKind(str, Enum):
    DOMINATING_SET = "dominating-set"
    MATCHING = "matching"
    INDEPENDENT_SET = "independent-set"


@dataclass(frozen=True)
class Solution:
    kind: SolutionKind
    members: frozenset


@dataclass
class VerificationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def verify_solution(g: Graph, s: Solution) -> VerificationReport:
    """Check validity; violations are reported, never raised."""
    violations: list[str] = []
    if s.kind is SolutionKind.MATCHING:
        seen: set[int] = set()
        for item in sorted(s.members):
            u, v = normalize_edge(*item)
            if not (0 <= u < g.n and 0 <= v < g.n) or (u, v) not in g.edges:
                violations.append(f"({u}, {v}) is not an edge of the graph")
                continue
            if u in seen or v in seen:
                violations.append(f"edge ({u}, {v}) shares a node with another edge")
            seen.update((u, v))
    else:
        members = set(s.members)
        for v in sorted(members):
            if not (isinstance(v, int) and 0 <= v < g.n):
                violations.append(f"{v!r} is not a node")
        members = {v for v in members if isinstance(v, int) and 0 <= v < g.n}
        if s.kind is SolutionKind.DOMINATING_SET:
            for v in g.nodes:
                if v not in members and not any(u in members for u in g.neighbours(v)):
                    violations.append(f"node {v} is not dominated")
        else:
            for u, v in sorted(g.edges):
                if u in members and v in members:
                    violations.append(f"edge ({u}, {v}) lies inside the set")
    return VerificationReport(ok=not violations, violations=violations)
