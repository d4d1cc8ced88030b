"""Acceptance suite: one test per criterion, each printing a PASS line.

Exhaustive corpora come from the frozen files under tests/data (one
representative per isomorphism class, verified by labeled-count mass
checks at generation time).  Random corpora are seeded and deterministic.
All ratio bounds are checked exactly, in rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from localgraphs import (BLACK, WHITE, build_graph, classify_colouring,
                         ColouringClass, disjoint_union,
                         relabel, run_local_algorithm, with_colours)
from localgraphs.baselines import AllNodesDominatingSet
from localgraphs.engine import view_classes
from localgraphs.generators import (cycle_power, matching_to_independent_set,
                                    merge_layer_independent_sets,
                                    numbered_cycle, random_bipartite,
                                    random_weak, random_weak_colouring,
                                    shuffle_ports, strong_blowup,
                                    symmetric_complete, weak_layered,
                                    weak_layered_perfect_matching)
from localgraphs.matching import (MatchingSchemeAlgorithm, SchemeStats,
                                  approximate_maximum_matching,
                                  invocation_count, run_matching_scheme)
from localgraphs.oddds import centralized_weak_colouring, odd_delta_pipeline
from localgraphs.oracles import (Solution, SolutionKind, brute_max_matching,
                                 brute_min_dominating_set,
                                 shortest_augmenting_path_length,
                                 try_bipartition, verify_solution)
from localgraphs.starforest import (StarForestAlgorithm, run_star_forest,
                                    star_dominating_set, star_forest, star_matching)

import _corpus
from conftest import ColourEcho, ascending_ports

COLOUR_SAMPLES = 3      # one canonical + two random weak colourings per graph
PORT_SAMPLES = 3        # one canonical + two random port numberings per graph
RANDOM_WEAK_GRAPHS = 1000
RANDOM_BIPARTITE_GRAPHS = 500
RANDOM_ODD_GRAPHS = 500
RANDOM_MERGE_INPUTS = 1000
LOCALITY_RANDOM_GRAPHS = 100


def _pass(num: int, started: float, text: str) -> None:
    print(f"\n[criterion {num}] PASS ({time.perf_counter() - started:.1f}s) - {text}")


@pytest.fixture(scope="module")
def weak_base_graphs():
    return [ascending_ports(n, edges)
            for n, edges in _corpus.connected_graphs(max_n=8)]


@pytest.fixture(scope="module")
def weak_optima(weak_base_graphs):
    return {"ds": [len(brute_min_dominating_set(g)) for g in weak_base_graphs],
            "matching": [len(brute_max_matching(g)) for g in weak_base_graphs]}


@pytest.fixture(scope="module")
def random_weak_corpus():
    graphs = []
    for i in range(RANDOM_WEAK_GRAPHS):
        n = 4 + i % 17                      # 4..20
        delta = min(2 + i % 4, n - 1)       # 2..5
        graphs.append(random_weak(n, delta, seed=i, oriented=False))
    return graphs


def _weak_variants(base, index):
    for cseed in range(COLOUR_SAMPLES):
        if cseed == 0:
            colours = centralized_weak_colouring(base)
        else:
            colours = random_weak_colouring(base, 1000 * index + cseed)
        coloured = with_colours(base, colours)
        for pseed in range(PORT_SAMPLES):
            yield coloured if pseed == 0 else \
                shuffle_ports(coloured, 7000 * index + pseed)


def _check_star_ds(g, sf, ds_opt):
    ds = star_dominating_set(sf)
    assert verify_solution(g, Solution(SolutionKind.DOMINATING_SET, ds)).ok
    assert len(ds) <= g.n // 2
    assert Fraction(len(ds), ds_opt) <= Fraction(g.max_degree + 1, 2)


def _check_star_matching(g, sf, m_opt):
    m = star_matching(g, sf)
    assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
    assert len(m) >= math.ceil(Fraction(g.n, g.max_degree + 1))
    assert Fraction(m_opt, len(m)) <= Fraction(g.max_degree + 1, 2)


@pytest.fixture(scope="module")
def star_runs(weak_base_graphs, weak_optima, random_weak_corpus):
    """Criteria 1 and 2 in one pass over their instances.

    Each variant is generated, and its star forest computed, once; both
    criteria's checks run on it before the next one is generated, so the
    variants are never held all at once.  Returns the pass's start time,
    the run count and each criterion's first failed check.
    """
    started = time.perf_counter()
    failures: dict[int, AssertionError] = {}
    instances = itertools.chain(
        ((g, weak_optima["ds"][idx], weak_optima["matching"][idx])
         for idx, base in enumerate(weak_base_graphs)
         for g in _weak_variants(base, idx)),
        ((g, len(brute_min_dominating_set(g)), len(brute_max_matching(g)))
         for g in random_weak_corpus))
    runs = 0
    for g, ds_opt, m_opt in instances:
        sf = star_forest(g)
        for num, check, opt in ((1, _check_star_ds, ds_opt),
                                (2, _check_star_matching, m_opt)):
            try:
                check(g, sf, opt)
            except AssertionError as exc:
                failures.setdefault(num, exc)
        runs += 1
    return started, runs, failures


def test_criterion_1_star_dominating_set(star_runs, weak_base_graphs,
                                         random_weak_corpus):
    started, runs, failures = star_runs
    if 1 in failures:
        raise failures[1]
    _pass(1, started, f"star dominating set valid and within (max degree + 1)/2 "
          f"on {runs} runs ({len(weak_base_graphs)} exhaustive graphs, "
          f"{len(random_weak_corpus)} random; one pass shared with criterion 2)")


def test_criterion_2_star_matching(star_runs):
    started, runs, failures = star_runs
    if 2 in failures:
        raise failures[2]
    _pass(2, started, f"star matching valid and within (max degree + 1)/2 "
          f"on {runs} runs (one pass shared with criterion 1)")


def _check_scheme(g, k):
    stats = SchemeStats()
    m = approximate_maximum_matching(g, k, stats=stats)
    assert verify_solution(g, Solution(SolutionKind.MATCHING, m)).ok
    delta = g.max_degree
    for i in range(1, k + 1):
        assert stats.invocations.get(i, 0) == invocation_count(delta, i)
    spl = shortest_augmenting_path_length(g, m)
    assert spl is None or spl > 2 * k - 1
    best = len(brute_max_matching(g))
    assert len(m) >= math.ceil(Fraction(k, k + 1) * best)


def test_criterion_3_matching_scheme():
    started = time.perf_counter()
    runs = 0
    for n, edges in _corpus.bipartite_graphs_with_unions(10):
        base = ascending_ports(n, edges)
        side = try_bipartition(base)
        for flip in (False, True):
            colours = [BLACK if (s == 0) != flip else WHITE for s in side]
            g = with_colours(base, colours)
            for k in (1, 2, 3):
                _check_scheme(g, k)
                runs += 1
    for i in range(RANDOM_BIPARTITE_GRAPHS):
        n = 6 + i % 35                      # 6..40
        delta = min(2 + i % 3, n - 1)       # 2..4
        g = random_bipartite(n, delta, seed=i)
        for k in (1, 2, 3):
            _check_scheme(g, k)
            runs += 1
    _pass(3, started, f"matching scheme leaves no augmenting path of length "
          f"2k-1 and reaches k/(k+1) of the optimum on {runs} runs")


def test_criterion_4_odd_delta_dominating_set():
    started = time.perf_counter()
    for i in range(RANDOM_ODD_GRAPHS):
        delta = 3 if i % 2 == 0 else 5
        n = max(4 + i % 17, delta + 1)      # up to 20
        g = random_weak(n, delta, seed=i, oriented=True)
        result = odd_delta_pipeline(g, max_degree=delta)
        d = result.dominating_set
        part = result.partition
        assert verify_solution(g, Solution(SolutionKind.DOMINATING_SET, d)).ok
        assert 2 * len(d) <= len(part.a) + len(part.b) + 2 * len(part.c)
        assert len(d) <= delta * len(brute_min_dominating_set(g))
    _pass(4, started, f"odd degree bound pipeline valid, within the partition "
          f"size bound and within delta times optimal on {RANDOM_ODD_GRAPHS} "
          f"random graphs, bounds 3 and 5")


def _locality_fixture_runs():
    """(name, algorithm, graph) triples for the locality checks."""
    layered = weak_layered(numbered_cycle(4), 3)
    blowup = strong_blowup(numbered_cycle(8), 3)
    power = cycle_power(numbered_cycle(8), 2)
    weak = random_weak(12, 3, seed=42, oriented=False)
    bip = random_bipartite(12, 3, seed=42)
    return [
        ("star-forest", StarForestAlgorithm(), layered),
        ("star-forest", StarForestAlgorithm(), blowup),
        ("star-forest", StarForestAlgorithm(), weak),
        ("matching-scheme-k1", MatchingSchemeAlgorithm(1), blowup),
        ("matching-scheme-k2", MatchingSchemeAlgorithm(2), bip),
        ("matching-scheme-k3", MatchingSchemeAlgorithm(3), bip),
        ("all-nodes", AllNodesDominatingSet(), power),
        ("colour-echo", ColourEcho(), blowup),
    ]


def _random_locality_runs():
    """(name, algorithm, graph, degree bound) over seeded, port-shuffled random graphs."""
    runs = []
    for i in range(LOCALITY_RANDOM_GRAPHS):
        n, delta = 6 + i % 15, 2 + i % 3        # 6..20 nodes, bounds 2..4
        weak = shuffle_ports(random_weak(n, delta, seed=i, oriented=False), seed=i)
        bip = shuffle_ports(random_bipartite(n, delta, seed=i), seed=i)
        runs += [("star-forest", StarForestAlgorithm(), weak, delta),
                 ("all-nodes", AllNodesDominatingSet(), weak, delta),
                 ("colour-echo", ColourEcho(), bip, delta)]
        runs += [(f"matching-scheme-k{k}", MatchingSchemeAlgorithm(k), bip, delta)
                 for k in (1, 2, 3)]
    return runs


def _doubled(g, name):
    """g beside a relabelled copy of itself: every view class holds two nodes or more."""
    perm = list(g.nodes)
    random.Random(f"relabel:{name}").shuffle(perm)
    return disjoint_union(g, relabel(g, perm))


def _classes_with_two_outputs(alg, graphs, max_degree):
    """The view classes, at radius ``rounds_used``, in which ``alg`` gives two outputs.

    A local algorithm gives one.  Every graph runs under the one declared
    ``max_degree``: the bound is part of each node's view, but
    ``view_classes`` does not see it.
    """
    runs = [run_local_algorithm(g, alg, max_degree=max_degree) for g in graphs]
    output_of: dict = {}
    broken = set()
    for run, classes in zip(runs, view_classes(graphs, runs[0].rounds_used)):
        for v, c in enumerate(classes):
            if output_of.setdefault(c, run.outputs[v]) != run.outputs[v]:
                broken.add(c)
    return broken


def test_criterion_5_locality_suite():
    started = time.perf_counter()
    checks = [(name, alg, g, g.max_degree) for name, alg, g in _locality_fixture_runs()]
    checks += _random_locality_runs()
    nodes = 0
    for name, alg, g, delta in checks:
        graphs = [g, _doubled(g, name)]
        assert not _classes_with_two_outputs(alg, graphs, delta), name
        nodes += 3 * g.n

    # round and message-size budgets must not depend on the instance size
    coloured_algs = [StarForestAlgorithm(),
                     AllNodesDominatingSet(), ColourEcho(),
                     MatchingSchemeAlgorithm(1), MatchingSchemeAlgorithm(2),
                     MatchingSchemeAlgorithm(3)]
    families = [
        (strong_blowup(numbered_cycle(8), 3), strong_blowup(numbered_cycle(16), 3),
         coloured_algs),
        (weak_layered(numbered_cycle(4), 3), weak_layered(numbered_cycle(8), 3),
         [StarForestAlgorithm(), AllNodesDominatingSet()]),
        (cycle_power(numbered_cycle(8), 2), cycle_power(numbered_cycle(16), 2),
         [AllNodesDominatingSet()]),
    ]
    for small, large, algs in families:
        for alg in algs:
            a = run_local_algorithm(small, alg, max_degree=4)
            b = run_local_algorithm(large, alg, max_degree=4)
            assert a.rounds_used == b.rounds_used
            assert a.max_message_bits == b.max_message_bits

    # the pipeline with the centralized provider still acts per copy
    for seed in range(10):
        g = random_weak(10, 3, seed=seed, oriented=True)
        single_ds = odd_delta_pipeline(g, max_degree=3).dominating_set
        both = odd_delta_pipeline(disjoint_union(g, g), max_degree=3).dominating_set
        assert both == single_ds | {v + g.n for v in single_ds}
    _pass(5, started, f"all shipped algorithms and a zero-round colour reader give one "
          f"output per view class at radius rounds_used in {len(checks)} runs, each on "
          f"a graph beside its relabelled double ({nodes} nodes), and use "
          f"size-independent rounds and message bits")


class InitCounter(AllNodesDominatingSet):
    """Not local: each node outputs how many ``init`` calls its instance has seen."""

    def __init__(self):
        self.calls = 0

    def init(self, view):
        self.calls += 1
        return self.calls, {}, None

    def finalize(self, state):
        return state


def test_criterion_5_rejects_state_shared_between_nodes():
    # the scheme keeps a per-instance memo of its round facts, so this leak path is real
    g = random_weak(12, 3, seed=42, oriented=False)
    assert _classes_with_two_outputs(InitCounter(), [g, _doubled(g, "mutant")], 3)
    assert _classes_with_two_outputs(InitCounter(), [symmetric_complete(3)], 3)


def test_criterion_6_symmetry_witness():
    started = time.perf_counter()
    cliques = [symmetric_complete(3), symmetric_complete(5)]
    for k in cliques:
        for radius in range(6):
            assert view_classes([k], radius) == [[0] * k.n]
        assert not _classes_with_two_outputs(AllNodesDominatingSet(), [k], k.max_degree)
    _pass(6, started, "the port-symmetric cliques K4 and K6 each have one view "
          "class at every radius 0..5, so a local algorithm outputs one value "
          "on each; emitted sets are empty or all")


def test_criterion_7_generator_structure():
    started = time.perf_counter()
    for n in (8, 16, 24):
        g = strong_blowup(numbered_cycle(n), 3)
        assert all(g.degree(v) == 3 for v in g.nodes)
        assert classify_colouring(g) is ColouringClass.PROPER
        assert len(brute_min_dominating_set(g)) == 2 * n // 4
    c = numbered_cycle(4)
    layered = weak_layered(c, 3)
    pm = weak_layered_perfect_matching(c, 3)
    assert len(pm) == 8
    assert verify_solution(layered, Solution(SolutionKind.MATCHING, pm)).ok
    assert len({x for e in pm for x in e}) == layered.n
    assert len(brute_min_dominating_set(cycle_power(numbered_cycle(9), 1))) == 3
    _pass(7, started, "blowup family 3-regular, properly coloured, optimum "
          "2n/4 up to 48 nodes; layered perfect matching of 8 verified; "
          "cycle power optimum 3")


def test_criterion_8_extraction_procedures():
    started = time.perf_counter()
    rng = random.Random("criterion-8")
    for trial in range(RANDOM_MERGE_INPUTS):
        n = rng.randrange(4, 41)
        c = numbered_cycle(n)
        layers = []
        for _ in range(rng.randrange(1, 6)):
            layer = set()
            for v in range(n):
                if rng.random() < 0.5 and (v + 1) % n not in layer \
                        and (v - 1) % n not in layer:
                    layer.add(v)
            layers.append(layer)
        merged = merge_layer_independent_sets(c, layers)
        assert verify_solution(c.graph, Solution(
            SolutionKind.INDEPENDENT_SET, merged)).ok
        total = sum(len(s) for s in layers)
        bound = math.ceil(Fraction(total, 2 * len(layers) - 1))
        assert len(merged) >= bound
    for trial in range(200):
        n = rng.randrange(3, 30)
        c = numbered_cycle(n)
        matching = set()
        used = set()
        for v in range(n):
            w = c.successor(v)
            if v not in used and w not in used and rng.random() < 0.5:
                matching.add((v, w))
                used.update((v, w))
        out = matching_to_independent_set(c, matching)
        assert len(out) == len(matching)
        assert verify_solution(c.graph, Solution(
            SolutionKind.INDEPENDENT_SET, out)).ok
    _pass(8, started, f"layer merge meets the 1/(2*layers - 1) bound on "
          f"{RANDOM_MERGE_INPUTS} random inputs; matched-edge tails always "
          f"independent and size-preserving")


# k -> the inner nodes of P_{2k+2} whose ports are flipped in a tight numbering
TIGHT_PATH_FLIPS = {1: {1}, 2: {1, 3}, 3: {1, 5}, 4: {1, 5, 7}, 5: {1, 5, 9},
                    6: {1, 5, 11}}


def _tight_path(k, flipped):
    """P_{2k+2}, node 0 black and colours alternating.  An end node has
    one port; an inner node has port 1 toward its predecessor and port 2
    toward its successor, or the reverse if it is flipped."""
    n = 2 * k + 2

    def port(v, toward_successor):
        if v in (0, n - 1):
            return 1
        return 1 + ((v in flipped) != toward_successor)

    specs = [(v, v + 1, port(v, True), port(v + 1, False)) for v in range(n - 1)]
    return build_graph(n, specs, [BLACK if v % 2 == 0 else WHITE for v in range(n)])


def _tight_k3_graph():
    """The 8-node k = 3 witness with a cycle; black is node 0's side."""
    specs = [(0, 1, 2, 1), (0, 2, 3, 1), (0, 3, 1, 1), (0, 4, 4, 1), (1, 5, 3, 1),
             (1, 6, 2, 1), (2, 6, 3, 2), (2, 7, 2, 2), (3, 7, 2, 1)]
    return build_graph(8, specs, [BLACK, WHITE, WHITE, WHITE, WHITE, BLACK, BLACK, BLACK])


def _berge_optimum(g):
    """The blossom optimum, checked by Berge's theorem on a bipartite g."""
    best = brute_max_matching(g)
    assert shortest_augmenting_path_length(g, best) is None
    return best


def test_criterion_9_tightness_witnesses():
    started = time.perf_counter()
    witnesses = [(k, _tight_path(k, flipped)) for k, flipped in TIGHT_PATH_FLIPS.items()]
    witnesses.append((3, _tight_k3_graph()))
    for k, g in witnesses:
        m = approximate_maximum_matching(g, k)
        assert run_matching_scheme(g, k)[0] == m
        assert Fraction(len(_berge_optimum(g)), len(m)) == Fraction(k + 1, k)
        assert shortest_augmenting_path_length(g, m) == 2 * k + 1
    layered = 0
    for delta in (3, 4, 5, 6):
        for n in (4, 6, 8):
            g = weak_layered(numbered_cycle(n), delta)
            sf = star_forest(g)
            assert run_star_forest(g)[0] == sf
            ratio = Fraction(len(_berge_optimum(g)), len(star_matching(g, sf)))
            assert ratio == Fraction(delta + 1, 2)
            layered += 1
    _pass(9, started, f"the scheme is exactly (k+1)/k from optimal on {len(witnesses)} "
          f"witnesses for k = 1..6, each with a shortest augmenting path of 2k+1 "
          f"edges; the star matching is exactly (delta+1)/2 from optimal on "
          f"{layered} layered graphs, delta 3..6")


def test_criterion_5_extra_simulated_extractions():
    """Cross-check: the simulated star and scheme agree with the library
    outputs used throughout the suite (fidelity backstop for criterion 5)."""
    started = time.perf_counter()
    for seed in range(25):
        g = random_weak(14, 4, seed=seed, oriented=False)
        simulated = run_local_algorithm(g, StarForestAlgorithm())
        from localgraphs.starforest import star_forest_from_outputs
        assert star_forest_from_outputs(g, simulated.outputs) == star_forest(g)
    for seed in range(15):
        g = random_bipartite(14, 3, seed=seed)
        for k in (1, 2):
            m, _ = run_matching_scheme(g, k)
            assert m == approximate_maximum_matching(g, k)
    _pass(5, started, "simulated implementations reproduce the reference "
          "outputs (fidelity backstop)")
