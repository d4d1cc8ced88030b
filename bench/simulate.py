"""``simulate``: the port-numbering simulator on seeded graphs of 1000 nodes.

Set-up generates oriented ``random_weak`` graphs with degree bounds 3 and
5 and ``random_bipartite`` graphs with bounds 3 and 4.  Each is the
disjoint union of ``parts`` seeded graphs: the generators draw the edge
count uniformly and the scheme's work depends on where augmenting paths
fall, so a union of several keeps the work of one pass close across
seeds.  The centralized
references are computed and checked once, outside set-up and the timed
region.  Each pass then runs ``run_star_forest`` and
``odd_delta_pipeline`` on every weak graph (many nodes, 5 rounds) and
``run_matching_scheme`` for k = 1..3 on every bipartite graph (hundreds
of rounds, t_i fixed by the declared bound), and compares each output
with its reference.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from harness import Check, CheckFailed, Meter, require
from sweep import centralized_core_roots

NAME = "simulate"
PARAMS = {
    "n": 1000,
    "weak_deltas": [3, 5],         # oriented random_weak, star forest + odd pipeline
    "bipartite_deltas": [3, 4],    # random_bipartite, matching scheme
    "parts": 8,                    # each graph is a union of 8 graphs of n/8 nodes
    "ks": [1, 2, 3],
}
TAIL_PCT = 75
SETUP_REPEATS = 5  # fixed: each fresh import leaves memory behind, which peak RSS sees


class State:
    def __init__(self, lg, weak, bipartite):
        self.lg = lg
        self.weak = weak              # [(delta, graph)]
        self.bipartite = bipartite    # [(delta, graph)]
        self.refs: dict | None = None


def setup(lg, seed: int) -> State:
    rng = random.Random(f"simulate:{seed}")
    gen, parts = lg.generators, PARAMS["parts"]
    size = PARAMS["n"] // parts

    def union(make):
        g = make(rng.getrandbits(32))
        for _ in range(parts - 1):
            g = lg.graph.disjoint_union(g, make(rng.getrandbits(32)))
        return g

    weak = [(d, union(lambda s, d=d: gen.random_weak(size, d, s, oriented=True)))
            for d in PARAMS["weak_deltas"]]
    bip = [(d, union(lambda s, d=d: gen.random_bipartite(size, d, s)))
           for d in PARAMS["bipartite_deltas"]]
    return State(lg, weak, bip)


def references(state: State) -> list[Check]:
    """Checks that compute and verify every centralized reference once."""
    lg = state.lg
    o, sfm, mt = lg.oracles, lg.starforest, lg.matching
    refs: dict = {}
    state.refs = refs
    checks: list[Check] = []

    for idx, (delta, g) in enumerate(state.weak):
        def star(idx=idx, delta=delta, g=g):
            sf = sfm.star_forest(g)
            ds, m = sfm.star_dominating_set(sf), sfm.star_matching(g, sf)
            require(o.verify_solution(g, o.Solution(o.SolutionKind.DOMINATING_SET, ds)).ok,
                    "star dominating set invalid")
            require(o.verify_solution(g, o.Solution(o.SolutionKind.MATCHING, m)).ok,
                    "star matching invalid")
            require(2 * len(ds) <= g.n, "star dominating set above n/2")
            require(len(m) >= math.ceil(Fraction(g.n, g.max_degree + 1)),
                    "star matching below n/(D+1)")
            refs[("star", idx)] = sf

        def odd(idx=idx, delta=delta, g=g):
            result = lg.oddds.odd_delta_pipeline(
                g, provider=lg.oddds.centralized_weak_colouring, max_degree=delta)
            d, part = result.dominating_set, result.partition
            require(o.verify_solution(g, o.Solution(o.SolutionKind.DOMINATING_SET, d)).ok,
                    "odd-degree dominating set invalid")
            require(2 * len(d) <= len(part.a) + len(part.b) + 2 * len(part.c),
                    "odd-degree set above the partition bound")
            roots = centralized_core_roots(lg, result)
            refs[("odd", idx)] = roots | part.c
        checks += [(f"reference star weak[{idx}]", star), (f"reference odd weak[{idx}]", odd)]

    for idx, (delta, g) in enumerate(state.bipartite):
        def scheme(idx=idx, delta=delta, g=g):
            opt = len(o.brute_max_matching(g))
            for k in PARAMS["ks"]:
                stats = mt.SchemeStats()
                m = mt.approximate_maximum_matching(g, k, max_degree=delta, stats=stats)
                require(o.verify_solution(g, o.Solution(o.SolutionKind.MATCHING, m)).ok,
                        "scheme matching invalid")
                for i in range(1, k + 1):
                    require(stats.invocations.get(i, 0) == mt.invocation_count(delta, i),
                            f"invocations for i={i} differ from t_i")
                spl = o.shortest_augmenting_path_length(g, m)
                require(spl is None or spl > 2 * k - 1, f"augmenting path of length {spl} left")
                require(len(m) > 0 and Fraction(opt, len(m)) <= Fraction(k + 1, k),
                        "scheme ratio above (k+1)/k")
                refs[("scheme", idx, k)] = m
        checks.append((f"reference scheme bipartite[{idx}]", scheme))
    return checks


def _reference(state: State, key):
    ref = state.refs.get(key)
    if ref is None:
        raise CheckFailed(f"no verified reference for {key}")
    return ref


def _pass(state: State, meter: Meter) -> list[Check]:
    lg = state.lg
    checks: list[Check] = []
    for idx, (delta, g) in enumerate(state.weak):
        def star(idx=idx, g=g):
            t0 = time.perf_counter()
            sf, run = lg.starforest.run_star_forest(g)
            meter.simulated(g.n, run.rounds_used, time.perf_counter() - t0)
            require(sf == _reference(state, ("star", idx)),
                    "simulated star forest differs from centralized")

        def odd(idx=idx, delta=delta, g=g):
            result = lg.oddds.odd_delta_pipeline(
                g, provider=lg.oddds.centralized_weak_colouring, max_degree=delta)
            require(result.dominating_set == _reference(state, ("odd", idx)),
                    "odd-degree pipeline differs from centralized")
        checks += [(f"run_star_forest weak[{idx}] D={delta}", star),
                   (f"odd_delta_pipeline weak[{idx}] D={delta}", odd)]
    for idx, (delta, g) in enumerate(state.bipartite):
        for k in PARAMS["ks"]:
            def scheme(idx=idx, delta=delta, g=g, k=k):
                t0 = time.perf_counter()
                m, run = lg.matching.run_matching_scheme(g, k, max_degree=delta)
                meter.simulated(g.n, run.rounds_used, time.perf_counter() - t0)
                require(m == _reference(state, ("scheme", idx, k)),
                        "simulated scheme differs from centralized")
            checks.append((f"run_matching_scheme bipartite[{idx}] D={delta} k={k}", scheme))
    return checks


def passes(state: State, meter: Meter, tracer=None):
    while True:
        yield _pass(state, meter)
