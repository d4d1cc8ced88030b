"""Exception classes shared by all localgraphs modules, one per way a caller handles it.

The class decides the command line's exit code and is the ``error``
value it prints.  A bad parameter (a cycle length, a degree bound, a
``k``, a node set) is a plain ``ValueError``, which also exits 2.

* :class:`LocalGraphError`: the base class; raised by none, exit 2.
* :class:`GraphFormatError`: ``build_graph``, the JSON readers and
  ``disjoint_union`` refuse a malformed graph or graph document; exit 2.
* :class:`MalformedSolutionError`: a forest, matching, path set, output
  port, node set or provider colouring handed to a function, or a
  ``--solution`` file, does not fit the graph; exit 2.  A matching or a
  layer's node set is refused with the first violation ``verify_solution``
  reports.  Where a shipped algorithm built the structure (the simulated
  star forest's and scheme's outputs, the proposal phase's paths), the
  one place that reads it re-raises it as an :class:`InvariantError`.
* :class:`TooLargeError`: an exact search passed its work budget, or the
  matching scheme's round cap or ``gen``'s size cap refused the work
  before it was spent; exit 2.
* :class:`CapabilityError`: ``engine.check_colouring`` and the odd-Δ
  pipeline refuse a graph without the colours, weak or proper
  2-colouring, orientation or odd degree bound the algorithm needs;
  exit 3.  The engine checks the colouring before round 0, and each
  centralized reference on entry, so both refuse with the same message.
* :class:`InvariantError`: a check inside an algorithm failed, or a
  simulated algorithm broke the engine's send contract: a bug, not bad
  input; exit 4.
"""

from __future__ import annotations


class LocalGraphError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(LocalGraphError):
    """A graph, or a serialized graph document, is malformed."""


class MalformedSolutionError(LocalGraphError):
    """A structure handed to a function does not fit the graph."""


class TooLargeError(LocalGraphError):
    """A search's work, a round budget or a generated size exceeds its cap."""


class CapabilityError(LocalGraphError):
    """The graph lacks an input the algorithm needs."""


class InvariantError(LocalGraphError):
    """An internal invariant of an algorithm failed: a bug, not bad input.

    Raised explicitly, never through ``assert``, so the check also runs
    under ``python -O``.
    """
