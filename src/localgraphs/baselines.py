"""Trivial local algorithms: the zero-round baselines."""

from __future__ import annotations

from typing import Any

from .engine import LocalAlgorithm, NodeView, Sends
from .graph import WHITE, ColouringClass


class AllNodesDominatingSet(LocalAlgorithm):
    """Every node joins: the zero-round (max degree + 1)-approximation."""

    name = "all-nodes"

    def round_budget(self, max_degree: int) -> int:
        return 0

    def init(self, view: NodeView) -> tuple[Any, Sends]:
        return None, {}

    def finalize(self, state) -> bool:
        return True


class WhiteIndependentSet(LocalAlgorithm):
    """All white nodes of a properly 2-coloured graph; zero rounds."""

    name = "white-is"
    needs_colouring = ColouringClass.PROPER

    def round_budget(self, max_degree: int) -> int:
        return 0

    def init(self, view: NodeView) -> tuple[Any, Sends]:
        return view.colour == WHITE, {}

    def finalize(self, state) -> bool:
        return state
