"""Dominating set for odd degree bounds via weak colouring of an augmented core.

Pipeline: split the nodes by degree parity, induce the subgraph on the
odd-degree nodes and their even-degree neighbours, attach one simulated
degree-1 dummy to every node whose induced degree is even, obtain a weak
2-colouring of that all-odd-degree graph from a pluggable provider,
repair the colours of the even-degree nodes, build the star forest, and
return its roots together with every node outside the core.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .engine import RunResult, degree_bound
from .errors import CapabilityError, InvariantError, MalformedSolutionError
from .graph import (BLACK, INCOMING, OUTGOING, WHITE, ColouringClass, Graph,
                    classify_colouring, fixup_weak_colouring, induced_subgraph,
                    opposite, with_colours)
from .starforest import run_star_forest


class AbcPartition(NamedTuple):
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


class DummyAugmentedGraph(NamedTuple):
    """The induced core plus one degree-1 dummy per even-degree core node.

    ``graph`` materializes the dummies for the weak-colouring provider,
    which runs centrally; the simulated star phase runs on ``base``,
    without them.  Real nodes keep the ids 0..base.n-1 they have in
    ``base``; a dummy ``d`` hangs off its host ``graph.neighbours(d)[0]``.
    """

    graph: Graph
    base: Graph
    original_ids: tuple[int, ...]     # base id -> id in the source graph


def build_h2(g: Graph, part: AbcPartition) -> DummyAugmentedGraph:
    """Induce the core on a + b and give every even-degree node a dummy."""
    core = sorted(part.a | part.b)
    base, original_ids = induced_subgraph(g, core)
    port_to = list(map(base.neighbours, base.nodes))
    directions = list(map(base.port_directions, base.nodes)) if base.has_orientation else None
    for v in base.nodes:
        if base.degree(v) % 2 == 0:
            dummy = len(port_to)
            port_to[v] += (dummy,)
            port_to.append((v,))
            if directions is not None:
                directions[v] += (OUTGOING,)
                directions.append((INCOMING,))
    graph = Graph(None, tuple(port_to), None if directions is None else tuple(directions))
    if any(graph.degree(v) % 2 == 0 for v in graph.nodes):
        raise InvariantError("dummy-augmented core has an even-degree node")
    return DummyAugmentedGraph(graph=graph, base=base, original_ids=original_ids)


# -- weak-colouring providers ---------------------------------------------------

def centralized_weak_colouring(g: Graph) -> list[str]:
    """Default provider: greedy pass plus fix-up sweep.  Not a local algorithm."""
    colours: list[str | None] = [None] * g.n
    for v in g.nodes:
        prior = next((colours[u] for u in sorted(g.neighbours(v))
                      if colours[u] is not None), None)
        colours[v] = WHITE if prior is None else opposite(prior)
    return fixup_weak_colouring([g.neighbours(v) for v in g.nodes], colours)


# -- colour repair ---------------------------------------------------------------

def repair_b_colours(h: Graph, a_nodes, colours: Sequence[str]) -> list[str]:
    """Flip each B node (a node of the core ``h`` not in ``a_nodes``) all
    of whose A-neighbours share its colour; A nodes are never touched.

    If ``colours`` starts a weak 2-colouring of the dummy-augmented core,
    the result weakly 2-colours ``h``, so it is not checked again: a B
    node is flipped only when all its A-neighbours share its colour, and
    then they are all opposite to it; no node is flipped away from an
    opposite-coloured A-neighbour; and an A node keeps all its edges in
    the core and gets no dummy, so the provider already gave it an
    opposite neighbour.  A flip reads only A colours, so the order B is
    visited in does not matter.
    """
    a_set = set(a_nodes)
    return fixup_weak_colouring(
        [() if v in a_set else [u for u in h.neighbours(v) if u in a_set] for v in h.nodes],
        colours)


# -- the full pipeline -------------------------------------------------------------

class OddDeltaResult(NamedTuple):
    partition: AbcPartition
    h2: DummyAugmentedGraph
    core_colours: list[str]
    core_roots: frozenset[int]        # in source-graph ids
    dominating_set: frozenset[int]
    star_run: RunResult | None


def odd_delta_pipeline(g: Graph,
                       provider: Callable[[Graph], Sequence[str]] | None = None,
                       max_degree: int | None = None, *,
                       trace: Callable[[str], None] | None = None) -> OddDeltaResult:
    """Dominating set within ``delta`` of optimal; ``trace`` goes to the star phase's run."""
    delta = degree_bound(g, max_degree)
    if delta % 2 == 0:
        raise CapabilityError(f"degree bound {delta} is even")
    if g.n and not g.has_orientation:
        raise CapabilityError("pipeline requires an edge orientation")
    provider = provider or centralized_weak_colouring

    part = partition_abc(g)
    h2 = build_h2(g, part)
    h2_colours = provider(h2.graph)
    _check_provider_output(h2.graph, h2_colours)

    a_core = [i for i, v in enumerate(h2.original_ids) if v in part.a]
    core_colours = repair_b_colours(h2.base, a_core, h2_colours[:h2.base.n])

    star_run = None
    core_roots: frozenset[int] = frozenset()
    if h2.base.n:
        sf, star_run = run_star_forest(with_colours(h2.base, core_colours), trace=trace)
        core_roots = frozenset(h2.original_ids[v] for v in sf.roots)

    return OddDeltaResult(
        partition=part,
        h2=h2,
        core_colours=core_colours,
        core_roots=core_roots,
        dominating_set=core_roots | part.c,
        star_run=star_run,
    )


def _check_provider_output(h2_graph: Graph, colours) -> None:
    """The one check of a provider's output: a weak 2-colouring of ``h2_graph``."""
    if (not isinstance(colours, (list, tuple)) or len(colours) != h2_graph.n
            or any(c not in (BLACK, WHITE) for c in colours)):
        raise MalformedSolutionError("provider must return one colour per node")
    if h2_graph.n and classify_colouring(with_colours(h2_graph, colours)) < ColouringClass.WEAK:
        raise MalformedSolutionError("provider output is not a weak 2-colouring")

