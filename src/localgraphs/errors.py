"""Exception hierarchy shared by all localgraphs modules.

Classes are grouped by how a caller handles them, and the group decides
the command line's exit code:

* input (exit 2): a plain :class:`LocalGraphError` subclass; the input
  or a parameter is malformed, out of range or too large;
* capability (exit 3): a :class:`CapabilityError`; the graph lacks what
  the algorithm needs: colours, a weak or proper 2-colouring, an
  orientation or an odd degree bound.  A simulated algorithm declares
  the colouring it needs, and ``engine.check_colouring`` is the one
  refusal of a graph without it: the engine calls it before round 0,
  and each centralized reference calls it on entry with its simulated
  twin, so both refuse with the same class and message;
* internal (exit 4): an :class:`InvariantError`; a check inside an
  algorithm failed, or a simulated algorithm broke the engine's send
  contract, which is a bug, not bad input.

Every malformed structure handed to a function, whatever its kind, is a
:class:`MalformedSolutionError` (exit 2).  Where a shipped algorithm
built the structure itself (the simulated star forest's and scheme's
outputs, the paths the scheme's proposal phase chose), the one place
that reads it catches that class and re-raises it as an
:class:`InvariantError` (exit 4).
"""

from __future__ import annotations


class LocalGraphError(Exception):
    """Base class for all errors raised by this package."""


class CapabilityError(LocalGraphError):
    """The graph lacks an input the algorithm needs."""


class InvariantError(LocalGraphError):
    """An internal invariant of an algorithm failed: a bug, not bad input.

    Raised explicitly, never through ``assert``, so the check also runs
    under ``python -O``.
    """


# --- input: malformed or out-of-range graphs, documents and parameters -------

class SelfLoopError(LocalGraphError):
    pass


class DuplicateEdgeError(LocalGraphError):
    pass


class PortClashError(LocalGraphError):
    """A port index is used for two different edges at the same node."""


class PortGapError(LocalGraphError):
    """The ports at some node are not exactly 1..deg."""


class IsolatedNodeError(LocalGraphError):
    """The model assumes every node has at least one neighbour."""


class GraphFormatError(LocalGraphError):
    """A serialized graph or solution document does not match the schema."""


class MalformedSolutionError(LocalGraphError):
    """A forest, matching, path set, output port or cycle-node set handed to
    a function does not fit the graph."""


class ProviderFailureError(LocalGraphError):
    """A weak-colouring provider returned an invalid colouring."""


class RoundBudgetError(LocalGraphError):
    """A round budget exceeds the cap set before anything is allocated for it."""


class TooLargeError(LocalGraphError):
    """Instance exceeds the exact solver's configured size limit."""


class TooSmallError(LocalGraphError):
    pass


class DegenerateParamsError(LocalGraphError):
    pass


class OddCycleLengthError(LocalGraphError):
    """The layered construction needs an even cycle."""


class DeltaTooSmallError(LocalGraphError):
    pass


# --- capability: the graph lacks what the algorithm needs --------------------

class MissingColoursError(CapabilityError):
    """An operation needs node colours but the graph has none."""


class MissingOrientationError(CapabilityError):
    pass


class NotWeaklyColouredError(CapabilityError):
    pass


class NotProperlyColouredError(CapabilityError):
    pass


class EvenDeltaError(CapabilityError):
    """The odd-degree-bound pipeline was invoked with an even bound."""


# --- internal: a failed check inside an algorithm ----------------------------

class ShorterPathExistsError(InvariantError):
    """The flooding phase found an augmenting path shorter than requested."""
