"""Constant-time distributed graph algorithms on (weakly) coloured graphs.

Simulation engine for port-numbering algorithms, the star-forest
dominating-set/matching constructions, an odd-degree-bound dominating
set pipeline, a matching approximation scheme, adversarial instance
generators, and exact oracles for desk-scale verification.
"""

from .engine import LocalAlgorithm, NodeView, RunResult, run_local_algorithm
from .graph import (BLACK, INCOMING, OUTGOING, WHITE, ColouringClass, Graph, build_graph,
                    classify_colouring, disjoint_union, relabel, with_colours)

__all__ = [
    "BLACK", "INCOMING", "OUTGOING", "WHITE", "ColouringClass", "Graph", "build_graph",
    "classify_colouring", "disjoint_union", "relabel", "with_colours",
    "LocalAlgorithm", "NodeView", "RunResult", "run_local_algorithm",
]
