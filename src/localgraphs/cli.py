"""Batch front-end: generate instances, run algorithms, query oracles.

All output is JSON on stdout.  Exit codes: 0 success, 2 input error,
3 capability mismatch (the graph lacks what the algorithm needs), 4
internal invariant failure; the classes in :mod:`localgraphs.errors`
decide which.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import generators, graph as graphmod, oracles
from .baselines import AllNodesDominatingSet, WhiteIndependentSet
from .engine import run_local_algorithm
from .errors import (CapabilityError, InvariantError, LocalGraphError,
                     NotProperlyColouredError, RoundBudgetError)
from .graph import BLACK, ColouringClass, Graph, classify_colouring, normalize_edge
from .matching import (approximate_maximum_matching, check_round_budget,
                       run_matching_scheme)
from .oddds import colouring_provider_from_file, odd_delta_pipeline
from .oracles import Solution, SolutionKind, verify_solution
from .starforest import run_star_forest, star_matching

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 4

# largest nodes * maximum degree `gen` builds; a graph takes about 0.7 kB
# per unit while it is generated and serialized
MAX_GEN_SIZE = 10**6


class _CliFailure(Exception):
    def __init__(self, code: int, message: str, kind: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- gen -----------------------------------------------------------------------

def _gen_size(args) -> int:
    """Nodes times maximum degree of the graph ``gen`` would build."""
    n, d = args.n, args.delta
    return {"cycle": 2 * n,
            "cycle-power": 2 * args.k * n,
            "strong-blowup": 2 * n * d,
            "weak-layered": (d + 1) * n * max(d, 3),
            "symmetric-complete": (d + 1) * d}.get(args.family, n * d)


def _cmd_gen(args) -> int:
    if _gen_size(args) > MAX_GEN_SIZE:
        raise _CliFailure(EXIT_INPUT,
                          f"{args.family} with n={args.n}, delta={args.delta}, k={args.k} "
                          f"exceeds {MAX_GEN_SIZE} nodes times maximum degree", "gen-size")
    fam = args.family
    try:
        if fam in ("cycle", "cycle-power", "strong-blowup", "weak-layered"):
            cycle = generators.numbered_cycle(args.n)
        if fam == "cycle":
            g = cycle.graph
        elif fam == "cycle-power":
            g = generators.cycle_power(cycle, args.k)
        elif fam == "strong-blowup":
            g = generators.strong_blowup(cycle, args.delta)
        elif fam == "weak-layered":
            g = generators.weak_layered(cycle, args.delta)
        elif fam == "symmetric-complete":
            g = generators.symmetric_complete(args.delta)
        elif fam == "random-bipartite":
            g = generators.random_bipartite(args.n, args.delta, args.seed)
        else:
            g = generators.random_weak(args.n, args.delta, args.seed)
    except LocalGraphError as exc:     # gen reads no graph: every failure is a bad parameter
        raise _CliFailure(EXIT_INPUT, str(exc), type(exc).__name__) from exc
    _write_or_print(graphmod.dumps(g), args.out)
    return EXIT_OK


# -- run -----------------------------------------------------------------------

# problem -> (exact solver's name in `oracles`, minimization); the name is
# looked up per call, so a solver wrapped after import is the one called
_ORACLES = {"ds": ("brute_min_dominating_set", True),
            "matching": ("brute_max_matching", False),
            "is": ("brute_max_independent_set", False)}


def _oracle(problem: str):
    """The exact solver for ``problem`` and whether it minimizes."""
    name, minimization = _ORACLES[problem]
    return getattr(oracles, name), minimization


def _report(algorithm: str, g: Graph, solution_size: int, paper_bound: Fraction,
            rounds_used: int, max_message_bits: int, delta: int,
            optimal_size: int | None, minimization: bool) -> dict:
    ratio = None
    if optimal_size is not None and optimal_size > 0 and solution_size > 0:
        ratio = (Fraction(solution_size, optimal_size) if minimization
                 else Fraction(optimal_size, solution_size))
    if ratio is not None and ratio > paper_bound:
        raise InvariantError(
            f"ratio {ratio} exceeds the guaranteed bound {paper_bound}")
    return {
        "algorithm": algorithm,
        "n": g.n,
        "m": g.edge_count,
        "delta": delta,
        "solution_size": solution_size,
        "optimal_size": optimal_size,
        "ratio": None if ratio is None else float(ratio),
        "paper_bound": float(paper_bound),
        "rounds_used": rounds_used,
        "max_message_bits": max_message_bits,
    }


def _cmd_run(args) -> int:
    g = graphmod.load(args.graph)
    delta = g.max_degree
    if args.alg == "matching-scheme":
        try:
            check_round_budget(delta, args.k)
        except RoundBudgetError as exc:
            raise _CliFailure(EXIT_INPUT, str(exc), "round-budget") from exc
    trace_fh = None

    def write_trace(line: str) -> None:
        # opened on the first line, so a run refused before the engine
        # starts leaves an earlier trace at that path untouched
        nonlocal trace_fh
        if trace_fh is None:
            trace_fh = open(args.trace, "w", encoding="utf-8")
        trace_fh.write(line + "\n")

    trace = write_trace if args.trace else None
    try:
        if args.alg == "star-ds":
            sf, run = run_star_forest(g, trace=trace)
            members = sorted(sf.roots)
            problem, bound = "ds", Fraction(delta + 1, 2)
        elif args.alg == "star-matching":
            sf, run = run_star_forest(g, trace=trace)
            members = sorted(star_matching(g, sf))
            problem, bound = "matching", Fraction(delta + 1, 2)
        elif args.alg == "matching-scheme":
            matching, run = run_matching_scheme(g, args.k, trace=trace)
            if args.assert_oracle:
                check = approximate_maximum_matching(g, args.k, assert_oracle=True)
                if check != matching:
                    raise InvariantError("simulated and centralized schemes disagree")
            members = sorted(matching)
            problem, bound = "matching", Fraction(args.k + 1, args.k)
        elif args.alg == "odd-ds":
            provider = None
            if args.weak_colouring != "centralized":
                if not args.weak_colouring.startswith("external:"):
                    raise _CliFailure(EXIT_INPUT,
                                      f"bad provider {args.weak_colouring!r}", "bad-flag")
                provider = colouring_provider_from_file(
                    args.weak_colouring.split(":", 1)[1])
            result = odd_delta_pipeline(g, provider, trace=trace)
            run = result.star_run       # None when the core is empty
            members = sorted(result.dominating_set)
            problem, bound = "ds", Fraction(delta)
        elif args.alg == "all-nodes":
            run = run_local_algorithm(g, AllNodesDominatingSet(), trace=trace)
            members = sorted(v for v, joined in run.outputs.items() if joined)
            problem, bound = "ds", Fraction(delta + 1)
        else:   # white-is
            if not g.has_colours or classify_colouring(g) != ColouringClass.PROPER:
                raise NotProperlyColouredError("white-is needs a proper 2-colouring")
            run = run_local_algorithm(g, WhiteIndependentSet(), trace=trace)
            members = sorted(v for v, joined in run.outputs.items() if joined)
            problem, bound = "is", Fraction(delta)
        if trace is not None and trace_fh is None:     # a run that wrote no line
            trace_fh = open(args.trace, "w", encoding="utf-8")
    finally:
        if trace_fh:
            trace_fh.close()
    solver, minimization = _oracle(problem)
    opt = len(solver(g, args.limit)) if args.oracle else None
    doc = _report(args.alg, g, len(members), bound,
                  run.rounds_used if run else 0, run.max_message_bits if run else 0,
                  delta, opt, minimization)
    doc["members"] = members
    _emit(doc)
    return EXIT_OK


# -- oracle / verify / export ------------------------------------------------

def _cmd_oracle(args) -> int:
    g = graphmod.load(args.graph)
    solver, _ = _oracle(args.problem)
    members = sorted(solver(g, args.limit))
    _emit({"size": len(members), "members": members})
    return EXIT_OK


def _node_id(x) -> int:
    """A JSON integer; no bool, float or string is coerced."""
    if type(x) is not int:
        raise TypeError(f"member {x!r} is not an integer node id")
    return x


def _load_solution(path: str) -> Solution:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        kind = SolutionKind(doc["kind"])
        raw = doc["members"]
        if kind is SolutionKind.MATCHING:
            members = frozenset(normalize_edge(_node_id(u), _node_id(v)) for u, v in raw)
        else:
            members = frozenset(_node_id(v) for v in raw)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _CliFailure(EXIT_INPUT, f"bad solution file: {exc}", "bad-solution") from exc
    return Solution(kind, members)


def _cmd_verify(args) -> int:
    g = graphmod.load(args.graph)
    report = verify_solution(g, _load_solution(args.solution))
    _emit({"ok": report.ok, "violations": report.violations})
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    g = graphmod.load(args.graph)
    solution = _load_solution(args.solution) if args.solution else None
    _write_or_print(export_dot(g, solution), args.out)
    return EXIT_OK


def export_dot(g: Graph, solution: Solution | None = None) -> str:
    """DOT text: colours as fill, orientation as arrows, solutions highlighted.

    Matched edges are drawn with double lines, selected nodes with a
    double periphery.
    """
    in_set: frozenset = frozenset()
    matched: frozenset = frozenset()
    if solution is not None:
        if solution.kind is SolutionKind.MATCHING:
            matched = solution.members
        else:
            in_set = solution.members
    directed = g.has_orientation
    lines = ["digraph g {" if directed else "graph g {"]
    for v in g.nodes:
        attrs = []
        if g.has_colours:
            dark = g.colour(v) == BLACK
            attrs.append('style=filled')
            attrs.append(f'fillcolor={"black" if dark else "white"}')
            if dark:
                attrs.append("fontcolor=white")
        if v in in_set:
            attrs.append("peripheries=2")
        lines.append(f'  {v} [{", ".join(attrs)}];' if attrs else f"  {v};")
    connector = "->" if directed else "--"
    for u, v in sorted(g.edges):
        a, b = (u, v)
        if directed:
            a, b = g.orientation[(u, v)]
        attrs = []
        if (u, v) in matched:
            attrs.append('color="black:invis:black"')    # double line
        lines.append(f'  {a} {connector} {b}' + (f' [{", ".join(attrs)}];' if attrs else ";"))
    lines.append("}")
    return "\n".join(lines)


# -- argument parsing ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localgraph",
        description="Local graph algorithms, adversarial generators and oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--family", required=True,
                     choices=["cycle", "cycle-power", "strong-blowup", "weak-layered",
                              "symmetric-complete", "random-bipartite", "random-weak"])
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--delta", type=int, default=3)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run an algorithm on a graph file")
    run.add_argument("--graph", required=True)
    run.add_argument("--alg", required=True,
                     choices=["star-ds", "star-matching", "matching-scheme",
                              "odd-ds", "all-nodes", "white-is"])
    run.add_argument("--k", type=int, default=1, help="matching-scheme accuracy")
    run.add_argument("--oracle", action="store_true",
                     help="also compute the exact optimum and the ratio")
    run.add_argument("--assert-oracle", action="store_true",
                     help="re-check every scheme invocation against the oracle")
    run.add_argument("--limit", type=int, default=oracles.DEFAULT_LIMIT)
    run.add_argument("--weak-colouring", default="centralized",
                     help="centralized or external:<colour-map.json>")
    run.add_argument("--trace", help="write a JSON-lines execution trace")
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="exact optimum for a small instance")
    oracle.add_argument("--graph", required=True)
    oracle.add_argument("--problem", required=True, choices=["ds", "matching", "is"])
    oracle.add_argument("--limit", type=int, default=oracles.DEFAULT_LIMIT)
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="validate a solution file")
    verify.add_argument("--graph", required=True)
    verify.add_argument("--solution", required=True)
    verify.set_defaults(func=_cmd_verify)

    dot = sub.add_parser("export-dot", help="render a graph (and solution) as DOT")
    dot.add_argument("--graph", required=True)
    dot.add_argument("--solution")
    dot.add_argument("--out")
    dot.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        _emit({"error": exc.kind, "message": str(exc)})
        return exc.code
    except OSError as exc:      # a path named on the command line
        _emit({"error": "io-error", "message": str(exc)})
        return EXIT_INPUT
    except CapabilityError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_CAPABILITY
    except InvariantError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INTERNAL
    except (LocalGraphError, ValueError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
