"""Loaders for the frozen exhaustive graph corpora (graph6 lines)."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

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


@lru_cache(maxsize=None)
def manifest() -> dict:
    with open(DATA_DIR / "manifest.json") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _load(name: str) -> tuple[tuple[int, EdgeList], ...]:
    with open(DATA_DIR / name) as fh:
        return tuple(from_graph6(line.strip()) for line in fh if line.strip())


def connected_graphs(max_n: int = 8, min_n: int = 2):
    """All connected graphs with min_n..max_n nodes, one per iso class."""
    return [(n, e) for n, e in _load("connected_n2_8.g6") if min_n <= n <= max_n]


def bipartite_connected_graphs(max_n: int = 10, min_n: int = 2):
    return [(n, e) for n, e in _load("bipartite_connected_n2_10.g6")
            if min_n <= n <= max_n]


def bipartite_graphs_with_unions(max_n: int = 10):
    """All bipartite graphs without isolated nodes up to max_n nodes.

    Connected classes plus every multiset union of them; distinct
    multisets give non-isomorphic graphs, so the enumeration is
    exhaustive up to isomorphism.
    """
    comps = bipartite_connected_graphs(max_n)
    out: list[tuple[int, EdgeList]] = []

    def rec(budget: int, start: int, chosen: list[int]):
        if chosen:
            out.append(_union([comps[i] for i in chosen]))
        for i in range(start, len(comps)):
            n, _ = comps[i]
            if n > budget:
                break           # the corpus lists components by ascending n
            chosen.append(i)
            rec(budget - n, i, chosen)
            chosen.pop()

    rec(max_n, 0, [])
    return out


def _union(parts: list[tuple[int, EdgeList]]) -> tuple[int, EdgeList]:
    total, edges, offset = 0, [], 0
    for n, e in parts:
        edges.extend((u + offset, v + offset) for u, v in e)
        offset += n
        total += n
    return total, tuple(edges)


def is_connected(n: int, edges: EdgeList) -> bool:
    if n == 0:
        return True
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def is_bipartite_edges(n: int, edges: EdgeList) -> bool:
    colour = {}
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(n):
        if s in colour:
            continue
        colour[s] = 0
        queue = [s]
        for v in queue:
            for u in adj[v]:
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True
