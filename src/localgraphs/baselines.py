"""Trivial local algorithms: baselines and symmetry probes."""

from __future__ import annotations

from typing import Any

from .engine import Inbox, LocalAlgorithm, NodeView, Sends, _digest
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


class NeighbourhoodProbe(LocalAlgorithm):
    """Digest of the node's full radius-``rounds`` view, exchanged by port.

    Two nodes output the same digest whenever their rooted views are
    equivalent at that radius, which makes the probe a direct witness
    for port-symmetry arguments.
    """

    name = "probe"

    def __init__(self, rounds: int = 3):
        self.rounds = rounds

    def round_budget(self, max_degree: int) -> int:
        return self.rounds

    def init(self, view: NodeView) -> tuple[Any, Sends]:
        label = (view.degree, view.colour, view.port_directions)
        code = _digest(("leaf", label))
        state = {"label": label, "code": code, "degree": view.degree}
        return state, {p: code for p in range(1, view.degree + 1)}

    def step(self, state: dict, inbox: Inbox, round_no: int) -> tuple[Any, Sends]:
        state = dict(state)
        heard = tuple(sorted((p, msg.hex()) for p, msg in inbox.items()))
        state["code"] = _digest((state["label"], heard))
        return state, {p: state["code"] for p in range(1, state["degree"] + 1)}

    def finalize(self, state: dict) -> str:
        return state["code"].hex()


class DigestDominatingSetProbe(NeighbourhoodProbe):
    """Joins the set iff a chosen bit of the view digest is zero.

    Any such deterministic, identifier-free rule outputs the same
    decision at every node of a fully port-symmetric graph, so the set
    it emits there is empty or everything.
    """

    name = "probe-ds"

    def __init__(self, bit: int = 0, rounds: int = 3):
        super().__init__(rounds)
        self.bit = bit

    def finalize(self, state: dict) -> bool:
        value = int.from_bytes(state["code"], "big")
        return not (value >> (self.bit % 64)) & 1
