"""Read-only access to the frozen graph6 corpora under ``tests/data``.

The loader repeats the test suite's own, so that a change to the tests'
helpers cannot change the benchmark's inputs.
"""

from __future__ import annotations

from program import DATA

EdgeList = tuple[tuple[int, int], ...]


def from_graph6(line: str) -> tuple[int, EdgeList]:
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return n, tuple(edges)


def read_graph6(name: str) -> list[tuple[int, EdgeList]]:
    with open(DATA / name, encoding="ascii") as fh:
        return [from_graph6(line.strip()) for line in fh if line.strip()]


def connected_graphs() -> list[tuple[int, EdgeList]]:
    """Every connected graph on 2..8 nodes, one per isomorphism class."""
    return read_graph6("connected_n2_8.g6")


def bipartite_with_unions(max_n: int = 10) -> list[tuple[int, EdgeList]]:
    """Every bipartite graph without isolated nodes on up to ``max_n`` nodes:
    the connected classes and every multiset union of them."""
    comps = [c for c in read_graph6("bipartite_connected_n2_10.g6") if c[0] <= max_n]
    out: list[tuple[int, EdgeList]] = []

    def rec(budget: int, start: int, chosen: list[int]) -> None:
        if chosen:
            out.append(_union([comps[i] for i in chosen]))
        for i in range(start, len(comps)):
            if comps[i][0] <= budget:
                chosen.append(i)
                rec(budget - comps[i][0], i, chosen)
                chosen.pop()

    rec(max_n, 0, [])
    return out


def _union(parts) -> tuple[int, EdgeList]:
    edges, offset = [], 0
    for n, e in parts:
        edges.extend((u + offset, v + offset) for u, v in e)
        offset += n
    return offset, tuple(edges)


def ascending_ports(build_graph, n: int, pairs: EdgeList, colours=None):
    """Graph whose ports at every node follow ascending neighbour ids."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    port = {}
    for v in range(n):
        for i, u in enumerate(sorted(nbrs[v]), start=1):
            port[(v, u)] = i
    return build_graph(n, [(u, v, port[(u, v)], port[(v, u)]) for u, v in pairs], colours)
