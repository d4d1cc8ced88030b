"""The trivial local algorithm: the zero-round dominating-set baseline."""

from __future__ import annotations

from typing import Any

from .engine import LocalAlgorithm, NodeView, Sends


class AllNodesDominatingSet(LocalAlgorithm):
    """Every node joins: the zero-round (max degree + 1)-approximation."""

    name = "all-nodes"

    def round_budget(self, max_degree: int) -> int:
        return 0

    def init(self, view: NodeView) -> tuple[Any, Sends, int | None]:
        return None, {}, None

    def finalize(self, state) -> bool:
        return True

