"""Exact solvers and verifiers for desk-scale instances.

These are the ground truth every approximation claim is checked against.
The dominating-set solver uses bitmask branch and bound, which is
exponential, and stops on a work budget, ``SEARCH_BUDGET``.  Maximum
matching is polynomial and never capped: Edmonds' blossom algorithm
serves every graph, bipartite or not (see ``brute_max_matching``).  It
walks its paths in loops, so a long path or cycle cannot exhaust the
recursion limit.  Independent sets are verified, never solved.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Iterable
from typing import NamedTuple

from .errors import MalformedSolutionError, TooLargeError
from .graph import Edge, Graph, normalize_edge

# Word operations one exact dominating-set search may spend before
# TooLargeError: a pass over k n-bit masks costs k*ceil(n/64).  Counting
# only refuses; it never steers.  The slowest refusals found take about
# 2-3 s, on 48-64-node random graphs (Python 3.11.7, process time).
SEARCH_BUDGET = 15 * 10**6


def _over_budget(g: Graph, left: int) -> TooLargeError:
    return TooLargeError(f"exact search on {g.n} nodes passed its budget of {SEARCH_BUDGET} "
                         f"word operations at {SEARCH_BUDGET - left}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

def brute_min_dominating_set(g: Graph) -> frozenset[int]:
    """A minimum-cardinality dominating set, by branch and bound.

    Searches for a dominating set of size s for s = lower bound, lower
    bound + 1, ... so the first hit is provably optimal.  The mask table
    is charged two passes over n masks, and each greedy pick and each lower
    bound one; a graph whose table and first greedy pick (which every
    nonempty graph makes) do not fit is refused before a mask is built.
    """
    words = -(-g.n // 64)
    for spent in (2 * g.n * words, 3 * g.n * words):
        if spent > SEARCH_BUDGET:
            raise _over_budget(g, SEARCH_BUDGET - spent)
    left = SEARCH_BUDGET - 2 * g.n * words
    closed = [1 << v for v in g.nodes]
    for u, v in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << g.n) - 1

    # greedy max-coverage incumbent
    dominated, greedy = 0, []
    while dominated != full:
        if (left := left - g.n * words) < 0:
            raise _over_budget(g, left)
        best_u = max(g.nodes, key=lambda u: ((closed[u] & ~dominated).bit_count(), -u))
        greedy.append(best_u)
        dominated |= closed[best_u]

    def lower_bound(undom: int) -> int:
        nonlocal left
        if not undom:
            return 0
        if (left := left - g.n * words) < 0:
            raise _over_budget(g, left)
        cover = max((closed[u] & undom).bit_count() for u in g.nodes)
        return -(-undom.bit_count() // cover)

    chosen: list[int] = []
    found: list[int] | None = None

    def dfs(dominated: int, target: int, seen: dict[int, int]) -> bool:
        nonlocal found
        if dominated == full:
            found = list(chosen)
            return True
        prev = seen.get(dominated)
        if prev is not None and prev <= len(chosen):
            return False
        seen[dominated] = len(chosen)
        undom = full & ~dominated
        if len(chosen) + lower_bound(undom) > target:
            return False
        v = (undom & -undom).bit_length() - 1
        cands = sorted(_bits(closed[v]),
                       key=lambda u: -(closed[u] & undom).bit_count())
        for u in cands:
            chosen.append(u)
            if dfs(dominated | closed[u], target, seen):
                return True
            chosen.pop()
        return False

    # lower_bound(full) <= optimum <= len(greedy), so a miss below the
    # greedy size on every target proves the greedy set optimal
    for target in range(lower_bound(full), len(greedy)):
        if dfs(0, target, {}):
            return frozenset(found)
    return frozenset(greedy)


# -- maximum matching --------------------------------------------------------

def brute_max_matching(g: Graph) -> frozenset[Edge]:
    """An exact maximum matching: Edmonds' blossom algorithm on every graph.

    (Edmonds, "Paths, trees, and flowers", 1965.)  Starts from a greedy
    matching, then grows one alternating BFS tree from each free node in
    id order, neighbours in port order.  An edge between two even tree
    nodes closes an odd cycle (a blossom), which is contracted at the
    lowest common ancestor of its two ends by pointing every member's
    ``base`` at that ancestor, touching only the members; reaching a
    free node flips the augmenting path.  A search that reaches no free
    node leaves a Hungarian tree: every neighbour of its even nodes is
    in the tree, so no later augmenting path can enter it, and every
    later search skips its nodes.  Every walk is a loop, so no recursion
    limit applies.

    There is no size cap.  At most n searches, each scanning O(m) edges,
    give O(n·m), plus up to O(n^2) blossom work per search on
    blossom-heavy inputs; a graph loaded from JSON is not bounded by
    ``gen``'s size rule.  Measured (Python 3.11.7, process time, best of
    5), ``random_bipartite(10000, 6, s)`` for s = 1, 2, 3 solves in
    8-15 ms, where the Kuhn search this solver replaced on bipartite
    graphs took 0.61-4.7 s, and the same blossom search without the skip
    3.7-5.3 s.  The result is deterministic for a given port numbering;
    which maximum matching is returned is otherwise unspecified.
    """
    n = g.n
    match = [-1] * n
    for v in g.nodes:
        if match[v] == -1:
            for u in g.neighbours(v):
                if match[u] == -1:
                    match[v], match[u] = u, v
                    break
    parent = [-1] * n                           # the search tables, reset after each search
    base = list(range(n))
    even = [False] * n
    hungarian = [False] * n                     # in the tree of a search that failed
    for root in g.nodes:
        if match[root] == -1:
            end, touched = _augmenting_tree(g, match, root, parent, base, even, hungarian)
            if end == -1:
                for v in touched:
                    hungarian[v] = True
            while end != -1:                    # flip the path back to root
                v = parent[end]
                after = match[v]
                match[end], match[v] = v, end
                end = after
            for v in touched:
                parent[v] = -1
                base[v] = v
                even[v] = False
    return frozenset((v, u) for v, u in enumerate(match) if v < u)


def _augmenting_tree(g: Graph, match: list[int], root: int, parent: list[int],
                     base: list[int], even: list[bool],
                     hungarian: list[bool]) -> tuple[int, list[int]]:
    """A free node reached from root by an alternating path (or -1), and the tree's nodes.

    ``parent`` links each odd (inner) node to the even node it was reached
    from; an even node steps back through its partner.  Contracting a
    blossom also sets ``parent`` on its formerly even members, pointing
    the other way round the odd cycle, so partner and parent steps from
    any member still walk an alternating path back to root.  The tables
    come in as a fresh search leaves them (no parent, own base, not
    even); the search changes them only at the tree's nodes, which it
    returns so that the caller can reset just those.  Nodes marked in
    ``hungarian`` are never entered.
    """
    members: dict[int, list[int]] = {}          # base -> its blossom's nodes, if not just itself
    even[root] = True
    queue = [root]                              # the even nodes
    odd: list[int] = []

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while base[b] not in seen:
            b = parent[match[base[b]]]
        return base[b]

    def mark_path(v: int, stem: int, child: int, blossom: set[int]) -> None:
        while base[v] != stem:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[child]

    for v in queue:                             # the queue grows while it is read
        for u in g.neighbours(v):
            if hungarian[u] or base[v] == base[u] or match[v] == u:
                continue
            if even[u]:                         # an odd cycle: contract it
                stem = lca(v, u)
                blossom: set[int] = set()
                mark_path(v, stem, u, blossom)
                mark_path(u, stem, v, blossom)
                inside = members.setdefault(stem, [stem])
                now_even = []
                for b in blossom:               # re-base only the marked blossoms' nodes
                    for w in members.pop(b, (b,)):
                        base[w] = stem
                        inside.append(w)
                        if not even[w]:
                            even[w] = True
                            now_even.append(w)
                queue += sorted(now_even)       # id order, as a scan of all nodes gives
            elif parent[u] == -1:
                parent[u] = v
                odd.append(u)
                if match[u] == -1:
                    return u, queue + odd
                even[match[u]] = True
                queue.append(match[u])
    return -1, queue + odd


# -- augmenting paths ----------------------------------------------------------

def validate_matching(g: Graph, m: Iterable[Edge]) -> dict[int, int]:
    """Each matched node's partner; the first violation ``verify_solution``
    reports for m is raised as a MalformedSolutionError."""
    if not isinstance(m, Iterable):
        raise MalformedSolutionError(f"{m!r} is not a set of edges")
    partner, violations = _read_matching(g, m)
    if violations:
        raise MalformedSolutionError(violations[0])
    return partner


def shortest_augmenting_path_length(g: Graph, m: Iterable[Edge]) -> int | None:
    """Edge count of a shortest augmenting path for m, or None if m is maximum.

    Bipartite graphs only, which is every graph the matching scheme
    accepts; a non-bipartite graph raises ValueError.  An alternating
    breadth-first search from the free nodes of side 0 finds the length.
    """
    partner = validate_matching(g, m)
    side = try_bipartition(g)
    if side is None:
        raise ValueError("shortest augmenting path length needs a bipartite graph")
    return _augmenting_distance(g, partner, side)


def _augmenting_distance(g: Graph, partner: dict[int, int], side: list[int]) -> int | None:
    """``shortest_augmenting_path_length`` for a valid matching's partner map
    and a bipartition of g."""
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


# -- verification ----------------------------------------------------------------

class SolutionKind(str, Enum):
    DOMINATING_SET = "dominating-set"
    MATCHING = "matching"
    INDEPENDENT_SET = "independent-set"


class Solution(NamedTuple):
    kind: SolutionKind
    members: frozenset


class VerificationReport(NamedTuple):
    ok: bool
    violations: list[str]


def verify_solution(g: Graph, s: Solution) -> VerificationReport:
    """Check validity; violations are reported, never raised.

    The members are read once, in ``_sorted`` order; ``_read_matching``
    reads a matching.  A member counts as a node only when it is an
    ``int`` itself, so a bool, a float that equals a node id or an
    unhashable value is a violation, not that node.  The kind is looked
    up by value, so a plain string names it, and an unknown kind is the
    one violation reported.
    """
    try:
        kind = SolutionKind(s.kind)
    except ValueError:
        return VerificationReport(ok=False, violations=[f"{s.kind!r} is not a solution kind"])
    if not isinstance(s.members, Iterable):
        return VerificationReport(ok=False, violations=[f"members {s.members!r} are not a set"])
    if kind is SolutionKind.MATCHING:
        violations = _read_matching(g, s.members)[1]
        return VerificationReport(ok=not violations, violations=violations)
    items = _sorted(s.members)
    members = {v for v in items if type(v) is int and 0 <= v < g.n}
    violations = list(dict.fromkeys(f"{v!r} is not a node" for v in items
                                    if type(v) is not int or v not in members))
    if kind is SolutionKind.DOMINATING_SET:
        violations += [f"node {v} is not dominated" for v in g.nodes
                       if v not in members and not any(u in members for u in g.neighbours(v))]
    else:
        violations += [f"edge ({u}, {v}) lies inside the set" for u, v in sorted(g.edges)
                       if u in members and v in members]
    return VerificationReport(ok=not violations, violations=violations)


def _read_matching(g: Graph, members: Iterable) -> tuple[dict[int, int], list[str]]:
    """Each matched node's partner, and the violations of a matching's members.

    Reads the members once, in ``_sorted`` order, (v, u) as (u, v).  A
    member that is not an edge of g is a violation; so is an edge that
    shares a node with an earlier one, which still uses its nodes.  The
    map is a matching only without violations.
    """
    partner: dict[int, int] = {}
    violations: list[str] = []
    listed: set = set()         # the normalized members read so far
    for item in _sorted(members):
        try:
            u, v = pair = normalize_edge(*item)
            if pair in listed:
                continue
            listed.add(pair)
        except TypeError:       # not a pair, or a pair that cannot be ordered or hashed
            violations.append(f"{item!r} is not an edge of the graph")
            continue
        if not g.has_edge(u, v):    # a bool or a float that equals a node id is not that node
            violations.append(f"({u}, {v}) is not an edge of the graph")
            continue
        if u in partner or v in partner:
            violations.append(f"edge ({u}, {v}) shares a node with another edge")
        partner[u] = v
        partner[v] = u
    return partner, violations


def _sorted(members) -> list:
    """``sorted(members)``, or, when they cannot be compared, sorted by type and repr."""
    members = list(members)     # a one-pass iterator would be spent by the first sort
    try:
        return sorted(members)
    except TypeError:
        return sorted(members, key=lambda x: (type(x).__name__, repr(x)))
