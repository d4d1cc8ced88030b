"""Exception hierarchy shared by all localgraphs modules."""

from __future__ import annotations


class LocalGraphError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(LocalGraphError):
    """An internal invariant of an algorithm failed: a bug, not bad input.

    Raised explicitly, never through ``assert``, so the check also runs
    under ``python -O``.
    """


# --- graph construction and parsing ---------------------------------------

class GraphBuildError(LocalGraphError):
    """A graph violates a structural invariant."""


class SelfLoopError(GraphBuildError):
    pass


class DuplicateEdgeError(GraphBuildError):
    pass


class PortClashError(GraphBuildError):
    """A port index is used for two different edges at the same node."""


class PortGapError(GraphBuildError):
    """The ports at some node are not exactly 1..deg."""


class IsolatedNodeError(GraphBuildError):
    """The model assumes every node has at least one neighbour."""


class GraphFormatError(LocalGraphError):
    """A serialized graph or solution document does not match the schema."""


class MissingColoursError(LocalGraphError):
    """An operation needs node colours but the graph has none."""


class PortOutOfRangeError(LocalGraphError):
    pass


# --- simulation engine ------------------------------------------------------

class MissingInputError(LocalGraphError):
    """An algorithm requires colour/orientation input the graph lacks."""


# --- algorithms -------------------------------------------------------------

class NotWeaklyColouredError(LocalGraphError):
    pass


class NotProperlyColouredError(LocalGraphError):
    pass


class MalformedForestError(LocalGraphError):
    """A rooted forest has depth > 2, a cycle, or a parentless non-root."""


class EvenDeltaError(LocalGraphError):
    """The odd-degree-bound pipeline was invoked with an even bound."""


class MissingOrientationError(LocalGraphError):
    pass


class ProviderFailureError(LocalGraphError):
    """A weak-colouring provider returned an invalid colouring."""


class NotWeakOnAError(LocalGraphError):
    """Colour repair cannot fix a colouring that is broken on odd-degree nodes."""


class ShorterPathExistsError(LocalGraphError):
    """The flooding phase found an augmenting path shorter than requested."""


class RoundBudgetError(LocalGraphError):
    """A round budget exceeds the cap set before anything is allocated for it."""


class PathsNotDisjointError(LocalGraphError):
    pass


class NotAugmentingError(LocalGraphError):
    pass


# --- oracles ----------------------------------------------------------------

class TooLargeError(LocalGraphError):
    """Instance exceeds the exact solver's configured size limit."""


class InvalidMatchingError(LocalGraphError):
    pass


# --- generators ---------------------------------------------------------------

class TooSmallError(LocalGraphError):
    pass


class DegenerateParamsError(LocalGraphError):
    pass


class OddCycleLengthError(LocalGraphError):
    """The layered construction needs an even cycle."""


class DeltaTooSmallError(LocalGraphError):
    pass


class NotInCycleError(LocalGraphError):
    pass


class NotIndependentError(LocalGraphError):
    pass
