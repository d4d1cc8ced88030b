"""``sweep``: the paper's guarantees checked exactly on many small instances.

Mirrors acceptance criteria 1-4.  A pass is ``cycles_per_pass`` cycles.
Cycle c holds the c-th graph of a fixed stride through the connected
corpus (n <= 8) with its 3 colourings x 3 port numberings, the c-th
graph of a stride through the bipartite corpus (n <= 10, unions
included) with both polarities x k = 1..3, one small seeded
``random_weak`` graph, one small ``random_bipartite`` graph with
k = 1..3 and one odd-degree oriented graph for ``odd_delta_pipeline``.
The strides span each corpus once per pass; the seed picks their offsets
and the random graphs, and every pass repeats the same instances.  Every instance runs the
centralized algorithm, the exact oracle and ``verify_solution``; a fixed
slice of them also runs the simulated algorithm and must agree with the
centralized one.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import corpus
from harness import Check, Meter, require

NAME = "sweep"
PARAMS = {
    "colour_samples": 3,           # centralized + 2 random weak colourings
    "port_samples": 3,             # given ports, shuffled, shuffled and relabelled
    "ks": [1, 2, 3],
    "random_weak_n": [4, 20], "random_weak_delta": [2, 5],
    "random_bipartite_n": [6, 40], "random_bipartite_delta": [2, 4],
    "odd_n": [4, 20], "odd_deltas": [3, 5],
    "cycles_per_pass": 50,         # 20 checks per cycle; sets both strides
    "simulated_slice": "colouring 1 x shuffled ports; polarity 0 with k = 1; "
                       "random bipartite k = 1; every odd-degree run",
}
TAIL_PCT = 99
SETUP_REPEATS = 3  # fixed: each fresh import leaves memory behind, which peak RSS sees


class State:
    def __init__(self, lg, seed, weak_bases, bip_bases):
        self.lg = lg
        self.seed = seed
        self.weak_bases = weak_bases
        self.bip_bases = bip_bases


def setup(lg, seed: int) -> State:
    """Parse both corpora in full and build the seed's strided slices."""
    rng = random.Random(f"sweep:{seed}")
    cycles = PARAMS["cycles_per_pass"]
    connected = _strided(corpus.connected_graphs(), cycles, rng)
    bipartite = _strided(corpus.bipartite_with_unions(10), cycles, rng)
    build = lg.graph.build_graph
    weak_bases = [corpus.ascending_ports(build, n, e) for n, e in connected]
    bip_bases = []
    for n, e in bipartite:
        g = corpus.ascending_ports(build, n, e)
        bip_bases.append((g, lg.oracles.try_bipartition(g)))
    return State(lg, seed, weak_bases, bip_bases)


def _spread(bounds: list[int], c: int) -> int:
    """Cycle c's value in the inclusive range ``bounds``, stepping by one."""
    lo, hi = bounds
    return lo + c % (hi - lo + 1)


def _strided(items: list, count: int, rng: random.Random) -> list:
    """``count`` items at a fixed stride spanning the list, from a seeded offset."""
    stride = len(items) // count
    return items[rng.randrange(stride)::stride][:count]


# -- exact checks ---------------------------------------------------------------

def _check_star(lg, g, meter: Meter, simulate: bool) -> None:
    o = lg.oracles
    sf = lg.starforest.star_forest(g)
    ds = lg.starforest.star_dominating_set(sf)
    m = lg.starforest.star_matching(g, sf)
    ds_opt = len(o.brute_min_dominating_set(g))
    m_opt = len(o.brute_max_matching(g))
    bound = Fraction(g.max_degree + 1, 2)
    require(o.verify_solution(g, o.Solution(o.SolutionKind.DOMINATING_SET, ds)).ok,
            "star dominating set invalid")
    require(o.verify_solution(g, o.Solution(o.SolutionKind.MATCHING, m)).ok,
            "star matching invalid")
    require(2 * len(ds) <= g.n, "star dominating set above n/2")
    require(Fraction(len(ds), ds_opt) <= bound, "dominating set ratio above (D+1)/2")
    require(len(m) >= math.ceil(Fraction(g.n, g.max_degree + 1)),
            "star matching below n/(D+1)")
    require(Fraction(m_opt, len(m)) <= bound, "matching ratio above (D+1)/2")
    if simulate:
        sim, run = _timed_sim(meter, g, lambda: lg.starforest.run_star_forest(g))
        require(sim == sf, "simulated star forest differs from centralized")


def _check_scheme(lg, g, k: int, meter: Meter, simulate: bool) -> None:
    o, mt = lg.oracles, lg.matching
    stats = mt.SchemeStats()
    m = mt.approximate_maximum_matching(g, k, stats=stats)
    require(o.verify_solution(g, o.Solution(o.SolutionKind.MATCHING, m)).ok,
            "scheme matching invalid")
    for i in range(1, k + 1):
        require(stats.invocations.get(i, 0) == mt.invocation_count(g.max_degree, i),
                f"invocations for i={i} differ from t_i")
    spl = o.shortest_augmenting_path_length(g, m)
    require(spl is None or spl > 2 * k - 1, f"augmenting path of length {spl} left")
    opt = len(o.brute_max_matching(g))
    require(len(m) > 0 and Fraction(opt, len(m)) <= Fraction(k + 1, k),
            "scheme ratio above (k+1)/k")
    if simulate:
        sim, run = _timed_sim(meter, g, lambda: mt.run_matching_scheme(g, k))
        require(sim == m, "simulated scheme differs from centralized")


def _check_odd(lg, g, delta: int, meter: Meter) -> None:
    o = lg.oracles
    t0 = time.perf_counter()
    result = lg.oddds.odd_delta_pipeline(g, provider=lg.oddds.centralized_weak_colouring,
                                         max_degree=delta)
    if result.star_run is not None:
        meter.simulated(result.h2.base.n, result.star_run.rounds_used, time.perf_counter() - t0)
    d, part = result.dominating_set, result.partition
    require(o.verify_solution(g, o.Solution(o.SolutionKind.DOMINATING_SET, d)).ok,
            "odd-degree dominating set invalid")
    require(2 * len(d) <= len(part.a) + len(part.b) + 2 * len(part.c),
            "odd-degree set above the partition bound")
    require(Fraction(len(d), len(o.brute_min_dominating_set(g))) <= delta,
            "odd-degree ratio above D")
    require(result.core_roots == centralized_core_roots(lg, result),
            "simulated core stars differ from centralized")


def centralized_core_roots(lg, result) -> frozenset:
    """The pipeline's star phase recomputed by the centralized reference."""
    if not result.h2.base.n:
        return frozenset()
    core = lg.graph.with_colours(result.h2.base, result.core_colours)
    return frozenset(result.h2.original_ids[v] for v in lg.starforest.star_forest(core).roots)


def _timed_sim(meter: Meter, g, call):
    t0 = time.perf_counter()
    out, run = call()
    meter.simulated(g.n, run.rounds_used, time.perf_counter() - t0)
    return out, run


# -- instance stream ----------------------------------------------------------------

def _cycle(state: State, c: int, meter: Meter) -> list[Check]:
    lg, seed = state.lg, state.seed
    gen = lg.generators
    rng = random.Random(f"sweep:{seed}:{c}")
    checks: list[Check] = []

    base = state.weak_bases[c]
    for cseed, pseed in itertools.product(range(PARAMS["colour_samples"]),
                                          range(PARAMS["port_samples"])):
        vseed = rng.getrandbits(32)

        def weak(cseed=cseed, pseed=pseed, vseed=vseed):
            colours = (lg.oddds.centralized_weak_colouring(base) if cseed == 0
                       else gen.random_weak_colouring(base, vseed))
            g = lg.graph.with_colours(base, colours)
            if pseed >= 1:
                g = gen.shuffle_ports(g, vseed)
            if pseed == 2:
                perm = list(g.nodes)
                random.Random(vseed).shuffle(perm)
                g = lg.graph.relabel(g, perm)
            _check_star(lg, g, meter, simulate=(cseed, pseed) == (1, 1))
        checks.append((f"weak[{c}] colouring {cseed} ports {pseed}", weak))

    bip, side = state.bip_bases[c]
    for flip, k in itertools.product((False, True), PARAMS["ks"]):
        def scheme(flip=flip, k=k):
            colours = [lg.graph.BLACK if (s == 0) != flip else lg.graph.WHITE for s in side]
            g = lg.graph.with_colours(bip, colours)
            _check_scheme(lg, g, k, meter, simulate=not flip and k == 1)
        checks.append((f"bipartite[{c}] flip {flip} k {k}", scheme))

    n = _spread(PARAMS["random_weak_n"], c)
    delta = min(_spread(PARAMS["random_weak_delta"], c), n - 1)
    wseed = rng.getrandbits(32)
    checks.append((f"random_weak({n}, {delta}, {wseed})",
                   lambda: _check_star(lg, gen.random_weak(n, delta, wseed, oriented=False),
                                       meter, simulate=False)))

    bn = _spread(PARAMS["random_bipartite_n"], c)
    bdelta = min(_spread(PARAMS["random_bipartite_delta"], c), bn - 1)
    bseed = rng.getrandbits(32)
    for k in PARAMS["ks"]:
        checks.append((f"random_bipartite({bn}, {bdelta}, {bseed}) k {k}",
                       lambda k=k: _check_scheme(lg, gen.random_bipartite(bn, bdelta, bseed),
                                                 k, meter, simulate=k == 1)))

    odelta = PARAMS["odd_deltas"][c % len(PARAMS["odd_deltas"])]
    on = max(_spread(PARAMS["odd_n"], c), odelta + 1)
    oseed = rng.getrandbits(32)
    checks.append((f"odd random_weak({on}, {odelta}, {oseed})",
                   lambda: _check_odd(lg, gen.random_weak(on, odelta, oseed, oriented=True),
                                      odelta, meter)))
    return checks


def passes(state: State, meter: Meter, tracer=None):
    checks = [chk for c in range(PARAMS["cycles_per_pass"]) for chk in _cycle(state, c, meter)]
    while True:
        yield checks
