"""Constant-time distributed graph algorithms on (weakly) coloured graphs.

Simulation engine for port-numbering algorithms, the star-forest
dominating-set/matching constructions, an odd-degree-bound dominating
set pipeline, a matching approximation scheme, adversarial instance
generators, and exact oracles for desk-scale verification.
"""

from .engine import (INCOMING, OUTGOING, LocalAlgorithm, NodeView, RunResult,
                     local_views_equivalent, run_local_algorithm)
from .graph import (BLACK, WHITE, ColouringClass, Graph, build_graph,
                    classify_colouring, disjoint_union, relabel, with_colours)

__all__ = [
    "BLACK", "WHITE", "ColouringClass", "Graph", "build_graph",
    "classify_colouring", "disjoint_union", "relabel", "with_colours",
    "INCOMING", "OUTGOING", "LocalAlgorithm", "NodeView", "RunResult",
    "local_views_equivalent", "run_local_algorithm",
]
