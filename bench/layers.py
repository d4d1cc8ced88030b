"""Which program functions the traced run wraps, and the per-layer metrics
derived from its spans and counters.

Each layer is one module of ``localgraphs``.  Span names are
``<layer>.<function>``; ``cli.<command>`` spans are opened by the
cli-pipeline workload around its own ``cli.main`` calls.
"""

from __future__ import annotations

from collections import Counter

from tracing import Target, Tracer, self_times


def _count_edges(counters, args, kwargs, result, token):
    counters["generators.edges"] += result.edge_count


def _json_in(counters, args, kwargs, result, token):
    counters["graph.json_bytes"] += len(args[0].encode())


def _json_out(counters, args, kwargs, result, token):
    counters["graph.json_bytes"] += len(result.encode())


def _engine_run(counters, args, kwargs, result, token):
    counters["engine.rounds"] += result.rounds_used
    counters["engine.node_rounds"] += args[0].n * result.rounds_used
    counters["engine.max_message_bits"] = max(counters["engine.max_message_bits"],
                                              result.max_message_bits)


def _sends(counters, args, kwargs, result, token):
    sends = result[1]
    counters["engine.messages"] += len(sends)
    counters["engine.message_bits"] += 8 * sum(len(p) for p in sends.values())


def _give_stats(args, kwargs):
    """Pass a SchemeStats when the caller did not, and remember where it stood."""
    if kwargs.get("stats") is None:
        from localgraphs.matching import SchemeStats
        kwargs["stats"] = SchemeStats()
    return len(kwargs["stats"].augmentations)


def _scheme_counts(counters, args, kwargs, result, before):
    new = kwargs["stats"].augmentations[before:]
    counters["matching.invocations"] += len(new)
    counters["matching.useful_invocations"] += sum(1 for paths in new if paths >= 1)


def _h2_nodes(counters, args, kwargs, result, token):
    counters["oddds.h2_nodes"] += result.h2.graph.n


LG = "localgraphs"
TARGETS = [
    Target("generators.random_weak", f"{LG}.generators", "random_weak", _count_edges),
    Target("generators.random_bipartite", f"{LG}.generators", "random_bipartite", _count_edges),
    Target("generators.shuffle_ports", f"{LG}.generators", "shuffle_ports"),
    Target("generators.random_weak_colouring", f"{LG}.generators", "random_weak_colouring"),
    Target("graph.build_graph", f"{LG}.graph", "build_graph"),
    Target("graph.with_colours", f"{LG}.graph", "with_colours"),
    Target("graph.relabel", f"{LG}.graph", "relabel"),
    Target("graph.loads", f"{LG}.graph", "loads", _json_in),
    Target("graph.dumps", f"{LG}.graph", "dumps", _json_out),
    Target("engine.run_local_algorithm", f"{LG}.engine", "run_local_algorithm", _engine_run),
    Target("starforest.star_forest", f"{LG}.starforest", "star_forest"),
    Target("starforest.init", f"{LG}.starforest", "StarForestAlgorithm.init", _sends),
    Target("starforest.step", f"{LG}.starforest", "StarForestAlgorithm.step", _sends),
    Target("matching.approximate_maximum_matching", f"{LG}.matching",
           "approximate_maximum_matching", _scheme_counts, _give_stats),
    Target("matching.flood_phase", f"{LG}.matching", "flood_phase"),
    Target("matching.proposal_phase", f"{LG}.matching", "proposal_phase"),
    Target("matching.augment_phase", f"{LG}.matching", "augment_phase"),
    # aliases only: the matching module's own calls, not every caller's
    Target("matching.validate_matching", f"{LG}.matching", "validate_matching"),
    Target("matching.classify_colouring", f"{LG}.matching", "classify_colouring"),
    Target("matching.init", f"{LG}.matching", "MatchingSchemeAlgorithm.init", _sends),
    Target("matching.step", f"{LG}.matching", "MatchingSchemeAlgorithm.step", _sends),
    Target("oddds.odd_delta_pipeline", f"{LG}.oddds", "odd_delta_pipeline", _h2_nodes),
    Target("oddds.provider", f"{LG}.oddds", "centralized_weak_colouring"),
    Target("oracles.brute_min_dominating_set", f"{LG}.oracles", "brute_min_dominating_set"),
    Target("oracles.brute_max_matching", f"{LG}.oracles", "brute_max_matching"),
    Target("oracles.shortest_augmenting_path_length", f"{LG}.oracles",
           "shortest_augmenting_path_length"),
    Target("oracles.verify_solution", f"{LG}.oracles", "verify_solution"),
]

CLI_COMMANDS = ("gen", "run", "verify", "oracle")

# (span, report calls, report seconds): spans whose totals are metrics
_TIMED = [
    ("generators.random_weak", True, True),
    ("generators.random_bipartite", True, True),
    ("generators.shuffle_ports", True, True),
    ("generators.random_weak_colouring", True, True),
    ("graph.build_graph", True, True),
    ("graph.with_colours", True, True),
    ("graph.relabel", True, True),
    ("graph.loads", False, True),
    ("graph.dumps", False, True),
    ("starforest.star_forest", True, True),
    ("starforest.step", True, True),
    ("matching.approximate_maximum_matching", True, True),
    ("matching.flood_phase", True, True),
    ("matching.proposal_phase", True, True),
    ("matching.augment_phase", True, True),
    ("matching.validate_matching", True, False),
    ("matching.classify_colouring", True, False),
    ("matching.step", True, True),
    ("oddds.odd_delta_pipeline", True, True),
    ("oddds.provider", False, True),
    ("oracles.brute_min_dominating_set", True, True),
    ("oracles.brute_max_matching", True, True),
    ("oracles.shortest_augmenting_path_length", True, True),
    ("oracles.verify_solution", True, True),
] + [(f"cli.{c}", True, True) for c in CLI_COMMANDS]

_COUNTS = ["generators.edges", "graph.json_bytes", "engine.node_rounds", "engine.rounds",
           "engine.messages", "engine.message_bits", "engine.max_message_bits",
           "matching.invocations", "oddds.h2_nodes", "cli.trace_bytes", "cli.report_bytes"]
_UNITS = {"generators.edges": "count", "graph.json_bytes": "bytes",
          "engine.message_bits": "bits", "engine.max_message_bits": "bits",
          "cli.trace_bytes": "bytes", "cli.report_bytes": "bytes"}


def _metric_list() -> list[tuple[str, str, str]]:
    out = []
    for span, calls, secs in _TIMED:
        if calls:
            out.append((f"{span}.calls", "count", "lower"))
        if secs:
            out.append((f"{span}.s", "s", "lower"))
    out += [("engine.runs", "count", "lower"), ("engine.s", "s", "lower"),
            ("engine.self_s", "s", "lower"), ("engine.ns_per_node_round", "ns", "lower")]
    out += [(name, _UNITS.get(name, "count"), "lower") for name in _COUNTS]
    out += [("matching.useful_invocation_ratio", "ratio", "higher"),
            ("trace.spans", "count", "lower"), ("trace.wall_s", "s", "lower"),
            ("trace.self_sum_s", "s", "lower"), ("trace.overhead_pct", "%", "lower")]
    return out


PER_LAYER = _metric_list()


def layer_metrics(tracer: Tracer, counters: Counter, traced_wall_s: float,
                  overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run's spans and counters.

    ``.s`` totals are inclusive of child spans; ``trace.self_sum_s`` adds
    up self times, which never exceed the traced wall time they cover.
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_total: Counter = Counter()
    names = tracer.names
    for i, nid in enumerate(tracer.name_id):
        name = names[nid]
        calls[name] += 1
        total[name] += tracer.end[i] - tracer.start[i]
        self_total[name] += selfs[i]
    values: dict[str, float] = {}
    for span, want_calls, want_secs in _TIMED:
        if want_calls:
            values[f"{span}.calls"] = calls[span]
        if want_secs:
            values[f"{span}.s"] = total[span]
    engine = "engine.run_local_algorithm"
    node_rounds = counters["engine.node_rounds"]
    values.update({
        "engine.runs": calls[engine],
        "engine.s": total[engine],
        "engine.self_s": self_total[engine],
        "engine.ns_per_node_round": 1e9 * total[engine] / node_rounds if node_rounds else 0.0,
    })
    for name in _COUNTS:
        values[name] = counters[name]
    invocations = counters["matching.invocations"]
    values["matching.useful_invocation_ratio"] = (
        counters["matching.useful_invocations"] / invocations if invocations else 0.0)
    values["trace.spans"] = len(tracer)
    values["trace.wall_s"] = traced_wall_s
    values["trace.self_sum_s"] = sum(selfs)
    values["trace.overhead_pct"] = overhead_pct
    return values
