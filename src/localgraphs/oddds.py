"""Dominating set for odd degree bounds via weak colouring of an augmented core.

Pipeline: split the nodes by degree parity, induce the subgraph on the
odd-degree nodes and their even-degree neighbours, attach one simulated
degree-1 dummy to every node whose induced degree is even, obtain a weak
2-colouring of that all-odd-degree graph from a pluggable provider,
repair the colours of the even-degree nodes, build the star forest, and
return its roots together with every node outside the core.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

from .engine import RunResult, degree_bound
from .errors import (EvenDeltaError, InvariantError, MissingOrientationError,
                     NotWeakOnAError, ProviderFailureError)
from .graph import (BLACK, WHITE, ColouringClass, Graph, classify_colouring,
                    induced_subgraph, opposite, with_colours)
from .starforest import run_star_forest

WeakColouringProvider = Callable[[Graph], Sequence[str]]


@dataclass(frozen=True)
class AbcPartition:
    """Odd-degree nodes, even-degree nodes next to them, and the rest."""

    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int]


def partition_abc(g: Graph) -> AbcPartition:
    a = frozenset(v for v in g.nodes if g.degree(v) % 2 == 1)
    b = frozenset(v for v in g.nodes
                  if v not in a and any(u in a for u in g.neighbours(v)))
    c = frozenset(v for v in g.nodes if v not in a and v not in b)
    return AbcPartition(a, b, c)


@dataclass(frozen=True)
class DummyAugmentedGraph:
    """The induced core plus one degree-1 dummy per even-degree core node.

    ``graph`` materializes the dummies for the weak-colouring provider,
    which runs centrally; the simulated star phase runs on ``base``,
    without them.  Real nodes keep the ids 0..real_count-1 they have in
    ``base``.
    """

    graph: Graph
    base: Graph
    original_ids: tuple[int, ...]     # base id -> id in the source graph
    dummy_hosts: dict[int, int]       # dummy id in graph -> base id

    @property
    def real_count(self) -> int:
        return self.base.n


def build_h2(g: Graph, part: AbcPartition) -> DummyAugmentedGraph:
    """Induce the core on a + b and give every even-degree node a dummy."""
    core = sorted(part.a | part.b)
    base, original_ids = induced_subgraph(g, core)
    port_to = list(map(base.neighbours, base.nodes))
    edges = set(base.edges)
    orientation = None if base.orientation is None else dict(base.orientation)
    dummy_hosts: dict[int, int] = {}
    for v in base.nodes:
        if base.degree(v) % 2 == 0:
            dummy = len(port_to)
            port_to[v] += (dummy,)
            port_to.append((v,))
            edges.add((v, dummy))
            if orientation is not None:
                orientation[(v, dummy)] = (v, dummy)
            dummy_hosts[dummy] = v
    graph = Graph(len(port_to), None, frozenset(edges), orientation, tuple(port_to))
    if any(graph.degree(v) % 2 == 0 for v in graph.nodes):
        raise InvariantError("dummy-augmented core has an even-degree node")
    return DummyAugmentedGraph(graph=graph, base=base,
                               original_ids=original_ids,
                               dummy_hosts=dummy_hosts)


# -- weak-colouring providers ---------------------------------------------------

def fixup_weak_colouring(neighbours: Sequence[Sequence[int]],
                         colours: Sequence[str]) -> list[str]:
    """One sweep flipping every node v whose ``neighbours[v]`` all share its colour.

    A flip gives all of the node's neighbours an opposite-coloured
    neighbour and never removes one, so a single sweep repairs any
    starting assignment on a graph without isolated nodes.
    """
    out = list(colours)
    for v, nbrs in enumerate(neighbours):
        if all(out[u] == out[v] for u in nbrs):
            out[v] = opposite(out[v])
    return out


def centralized_weak_colouring(g: Graph) -> list[str]:
    """Default provider: greedy pass plus fix-up sweep.  Not a local algorithm."""
    colours: list[str | None] = [None] * g.n
    for v in g.nodes:
        prior = next((colours[u] for u in sorted(g.neighbours(v))
                      if colours[u] is not None), None)
        colours[v] = WHITE if prior is None else opposite(prior)
    return fixup_weak_colouring([g.neighbours(v) for v in g.nodes], colours)


def colouring_provider_from_file(path) -> WeakColouringProvider:
    """Provider returning a colour list loaded from a JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    colours = doc.get("colours") if isinstance(doc, dict) else doc

    def provider(h2: Graph) -> Sequence[str]:
        if not isinstance(colours, list) or len(colours) != h2.n:
            raise ProviderFailureError(
                f"colour file must list exactly {h2.n} colours")
        return colours

    return provider


# -- colour repair ---------------------------------------------------------------

def repair_b_colours(h: Graph, a_nodes, b_nodes, colours: Sequence[str]) -> list[str]:
    """Flip each even-degree core node all of whose odd-degree neighbours
    share its colour; validate that the result weakly 2-colours the core.

    Odd-degree nodes are never touched.  If the result is not weak, the
    input already violated the precondition on the odd-degree side.
    """
    a_set = set(a_nodes)
    out = list(colours)
    for v in sorted(b_nodes):
        a_nbrs = [u for u in h.neighbours(v) if u in a_set]
        if a_nbrs and all(out[u] == out[v] for u in a_nbrs):
            out[v] = opposite(out[v])
    if h.n and classify_colouring(h, out) < ColouringClass.WEAK:
        bad = [v for v in h.nodes
               if all(out[u] == out[v] for u in h.neighbours(v))]
        raise NotWeakOnAError(
            f"input colouring is broken beyond repair at nodes {bad}")
    return out


# -- the full pipeline -------------------------------------------------------------

@dataclass
class OddDeltaResult:
    partition: AbcPartition
    h2: DummyAugmentedGraph
    h2_colours: list[str]
    core_colours: list[str]
    core_roots: frozenset[int]        # in source-graph ids
    dominating_set: frozenset[int]
    star_run: RunResult | None


def odd_delta_pipeline(g: Graph,
                       provider: WeakColouringProvider | None = None,
                       max_degree: int | None = None, *,
                       trace: Callable[[str], None] | None = None) -> OddDeltaResult:
    """Dominating set within ``delta`` of optimal; ``trace`` goes to the star phase's run."""
    delta = degree_bound(g, max_degree)
    if delta % 2 == 0:
        raise EvenDeltaError(f"degree bound {delta} is even")
    if g.n and not g.has_orientation:
        raise MissingOrientationError("pipeline requires an edge orientation")
    provider = provider or centralized_weak_colouring

    part = partition_abc(g)
    h2 = build_h2(g, part)
    h2_colours = list(provider(h2.graph))
    _check_provider_output(h2.graph, h2_colours)

    base_ids = {orig: i for i, orig in enumerate(h2.original_ids)}
    a_core = [base_ids[v] for v in part.a]
    b_core = [base_ids[v] for v in part.b]
    core_colours = repair_b_colours(h2.base, a_core, b_core,
                                    h2_colours[:h2.real_count])

    star_run = None
    core_roots: frozenset[int] = frozenset()
    if h2.base.n:
        sf, star_run = run_star_forest(with_colours(h2.base, core_colours), trace=trace)
        core_roots = frozenset(h2.original_ids[v] for v in sf.roots)

    return OddDeltaResult(
        partition=part,
        h2=h2,
        h2_colours=h2_colours,
        core_colours=core_colours,
        core_roots=core_roots,
        dominating_set=core_roots | part.c,
        star_run=star_run,
    )


def _check_provider_output(h2_graph: Graph, colours) -> None:
    if len(colours) != h2_graph.n or any(c not in (BLACK, WHITE) for c in colours):
        raise ProviderFailureError("provider must return one colour per node")
    if h2_graph.n and classify_colouring(h2_graph, colours) < ColouringClass.WEAK:
        raise ProviderFailureError("provider output is not a weak 2-colouring")


def odd_delta_dominating_set(g: Graph,
                             provider: WeakColouringProvider | None = None,
                             max_degree: int | None = None) -> frozenset[int]:
    """Dominating set of size at most ``delta`` times the optimum."""
    return odd_delta_pipeline(g, provider, max_degree).dominating_set
