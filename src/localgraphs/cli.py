"""Batch front-end: generate instances, run algorithms, query oracles.

All output is JSON on stdout.  Exit codes: 0 success, 2 input error,
3 capability mismatch (the graph lacks what the algorithm needs), 4
internal invariant failure; the classes in :mod:`localgraphs.errors`
decide which.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import generators, graph as graphmod, oracles
from .baselines import AllNodesDominatingSet
from .engine import RunResult, run_local_algorithm
from .errors import (CapabilityError, InvariantError, LocalGraphError,
                     MalformedSolutionError, TooLargeError)
from .graph import BLACK, Graph, edge_specs, normalize_edge
from .matching import approximate_maximum_matching, run_matching_scheme
from .oddds import odd_delta_pipeline
from .oracles import Solution, SolutionKind, verify_solution
from .starforest import run_star_forest, star_matching

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 4

# largest nodes * maximum degree `gen` builds; a graph takes about 0.7 kB
# per unit while it is generated and serialized
MAX_GEN_SIZE = 10**6


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- gen -----------------------------------------------------------------------

# family -> (nodes times maximum degree, construction) of the parsed arguments; a
# construction looks its generator up when called and builds the cycle first
_FAMILIES = {
    "cycle": (lambda a: 2 * a.n, lambda a: generators.numbered_cycle(a.n).graph),
    "cycle-power": (lambda a: 2 * a.k * a.n,
                    lambda a: generators.cycle_power(generators.numbered_cycle(a.n), a.k)),
    "strong-blowup": (lambda a: 2 * a.n * a.delta,
                      lambda a: generators.strong_blowup(generators.numbered_cycle(a.n),
                                                         a.delta)),
    "weak-layered": (lambda a: (a.delta + 1) * a.n * max(a.delta, 3),
                     lambda a: generators.weak_layered(generators.numbered_cycle(a.n),
                                                       a.delta)),
    "symmetric-complete": (lambda a: (a.delta + 1) * a.delta,
                           lambda a: generators.symmetric_complete(a.delta)),
    "random-bipartite": (lambda a: a.n * a.delta,
                         lambda a: generators.random_bipartite(a.n, a.delta, a.seed)),
    "random-weak": (lambda a: a.n * a.delta,
                    lambda a: generators.random_weak(a.n, a.delta, a.seed)),
}


def _cmd_gen(args) -> int:
    size, build = _FAMILIES[args.family]
    if size(args) > MAX_GEN_SIZE:
        raise TooLargeError(f"{args.family} with n={args.n}, delta={args.delta}, k={args.k} "
                            f"exceeds {MAX_GEN_SIZE} nodes times maximum degree")
    _write_or_print(graphmod.dumps(build(args)), args.out)
    return EXIT_OK


# -- run -----------------------------------------------------------------------

def _optimum(problem: str, g: Graph) -> frozenset:
    # read from `oracles` at each call, so a solver wrapped after import is the one called
    solve = oracles.brute_min_dominating_set if problem == "ds" else oracles.brute_max_matching
    return solve(g)


def _fraction_text(top: int, bottom: int) -> str:
    """``str(Fraction(top, bottom))`` for positive ints."""
    d = math.gcd(top, bottom)
    return f"{top // d}" if d == bottom else f"{top // d}/{bottom // d}"


def _report(algorithm: str, g: Graph, solution_size: int, paper_bound: tuple[int, int],
            run: RunResult, optimal_size: int | None, problem: str) -> dict:
    """The run report; ``paper_bound`` is a fraction (numerator, denominator), and
    ``problem`` is "ds" (a minimization) or "matching"."""
    top, bottom = paper_bound
    ratio = None
    if optimal_size is not None and optimal_size > 0 and solution_size > 0:
        ratio = ((solution_size, optimal_size) if problem == "ds"
                 else (optimal_size, solution_size))
    if ratio is not None and ratio[0] * bottom > top * ratio[1]:
        raise InvariantError(f"ratio {_fraction_text(*ratio)} exceeds the guaranteed "
                             f"bound {_fraction_text(top, bottom)}")
    return {
        "algorithm": algorithm,
        "n": g.n,
        "m": g.edge_count,
        "delta": g.max_degree,
        "solution_size": solution_size,
        "optimal_size": optimal_size,
        "ratio": None if ratio is None else ratio[0] / ratio[1],
        "paper_bound": top / bottom,
        "rounds_used": run.rounds_used,
        "max_message_bits": run.max_message_bits,
    }


def _cmd_run(args) -> int:
    g = graphmod.load(args.graph)
    delta = g.max_degree
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
            problem, bound = "ds", (delta + 1, 2)
        elif args.alg == "star-matching":
            sf, run = run_star_forest(g, trace=trace)
            members = sorted(star_matching(g, sf))
            problem, bound = "matching", (delta + 1, 2)
        elif args.alg == "matching-scheme":
            matching, run = run_matching_scheme(g, args.k, trace=trace)
            if args.assert_oracle:
                check = approximate_maximum_matching(g, args.k, assert_oracle=True)
                if check != matching:
                    raise InvariantError("simulated and centralized schemes disagree")
            members = sorted(matching)
            problem, bound = "matching", (args.k + 1, args.k)
        elif args.alg == "odd-ds":
            provider = None
            if args.weak_colouring != "centralized":
                if not args.weak_colouring.startswith("external:"):
                    raise ValueError(f"bad provider {args.weak_colouring!r}")
                colours = _load_colours(args.weak_colouring.split(":", 1)[1])
                provider = lambda h2: colours
            result = odd_delta_pipeline(g, provider, trace=trace)
            run = result.star_run   # never None: Δ is odd, so a node of degree Δ is in the core
            members = sorted(result.dominating_set)
            problem, bound = "ds", (delta, 1)
        else:   # all-nodes
            run = run_local_algorithm(g, AllNodesDominatingSet(), trace=trace)
            members = sorted(v for v, joined in run.outputs.items() if joined)
            problem, bound = "ds", (delta + 1, 1)
        if trace is not None and trace_fh is None:     # a run that wrote no line
            trace_fh = open(args.trace, "w", encoding="utf-8")
    finally:
        if trace_fh:
            trace_fh.close()
    opt = len(_optimum(problem, g)) if args.oracle else None
    doc = _report(args.alg, g, len(members), bound, run, opt, problem)
    doc["members"] = members
    _emit(doc)
    return EXIT_OK


# -- oracle / verify / export ------------------------------------------------

def _cmd_oracle(args) -> int:
    g = graphmod.load(args.graph)
    members = sorted(_optimum(args.problem, g))
    _emit({"size": len(members), "members": members})
    return EXIT_OK


def _node_id(x) -> int:
    """A JSON integer; no bool, float or string is coerced."""
    if type(x) is not int:
        raise TypeError(f"member {x!r} is not an integer node id")
    return x


def _load_solution(path: str) -> Solution:
    with open(path, "r", encoding="utf-8") as fh:      # OSError: io-error
        try:
            doc = json.load(fh)
            kind = SolutionKind(doc["kind"])
            raw = doc["members"]
            if kind is SolutionKind.MATCHING:
                members = frozenset(normalize_edge(_node_id(u), _node_id(v)) for u, v in raw)
            else:
                members = frozenset(_node_id(v) for v in raw)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise MalformedSolutionError(f"bad solution file: {exc}") from exc
    return Solution(kind, members)


def _load_colours(path: str):
    """A colour file's ``colours`` value, or the whole document if it is not an object."""
    with open(path, "r", encoding="utf-8") as fh:      # OSError: io-error
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise MalformedSolutionError("colour file is nested too deeply") from exc
    return doc.get("colours") if isinstance(doc, dict) else doc


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
    for u, v, _, _, direction in edge_specs(g):
        a, b = (v, u) if direction == "vu" else (u, v)
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
    gen.add_argument("--family", required=True, choices=list(_FAMILIES))
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
                              "odd-ds", "all-nodes"])
    run.add_argument("--k", type=int, default=1, help="matching-scheme accuracy")
    run.add_argument("--oracle", action="store_true",
                     help="also compute the exact optimum and the ratio")
    run.add_argument("--assert-oracle", action="store_true",
                     help="also run the centralized scheme and check each invocation "
                          "against the oracle; a path length stops at its first idle "
                          "invocation")
    run.add_argument("--weak-colouring", default="centralized",
                     help="centralized or external:<colour-map.json>")
    run.add_argument("--trace", help="write a JSON-lines execution trace")
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="exact optimum for a small instance")
    oracle.add_argument("--graph", required=True)
    oracle.add_argument("--problem", required=True, choices=["ds", "matching"])
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


_parser: argparse.ArgumentParser | None = None    # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:     # parsing keeps no state in the parser, so one serves every call
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:      # a path named on the command line
        _emit({"error": "io-error", "message": str(exc)})
        return EXIT_INPUT
    except (LocalGraphError, ValueError) as exc:   # the class decides the exit code
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return (EXIT_CAPABILITY if isinstance(exc, CapabilityError)
                else EXIT_INTERNAL if isinstance(exc, InvariantError) else EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
