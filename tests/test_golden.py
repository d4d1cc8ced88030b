"""Golden behaviour of the simulator: traces and outputs pinned by digest.

Each case runs one per-node algorithm on a deterministic construction
and hashes every trace line, the sorted outputs, ``rounds_used`` and
``max_message_bits``.  A change to the engine or to a ``step`` function
that alters any message, state or output changes the digest.  The
sends, outputs and round counts of the same cases are also pinned
without the state digests and without the lines that send nothing, so a
change to a state's layout or to which idle nodes the trace shows can be
told from a change in behaviour; two small cases that end with unmatched black
nodes pin the scheme's silent last round.  Only
deterministic generators are used, so a change to the seeded random
families leaves these digests alone; those families are pinned
separately, by a digest of each instance's JSON document, and so are
the graph copies derived from them (recolouring, port shuffles,
relabelling, unions, induced subgraphs and the dummy-augmented core).
The sparse stepping of the scheme and of the star forest, only on mail
or a requested wake-up, is checked against a run that steps every node
in every round.  Trace
lines and graph documents are written by hand, not by ``json.dumps``;
both are checked to be exactly the canonical ``sort_keys=True`` form.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from localgraphs import BLACK, WHITE, build_graph, run_local_algorithm
from localgraphs.baselines import AllNodesDominatingSet
from localgraphs.generators import (numbered_cycle, random_bipartite,
                                    random_weak, random_weak_colouring,
                                    shuffle_ports, strong_blowup, weak_layered)
from localgraphs.graph import (disjoint_union, dumps, graph_to_json_dict,
                               induced_subgraph, relabel, with_colours)
from localgraphs.matching import MatchingSchemeAlgorithm
from localgraphs.oddds import build_h2, odd_delta_pipeline, partition_abc
from localgraphs.starforest import StarForestAlgorithm

from conftest import Dense, DenseStar


def run_digest(g, alg) -> str:
    lines: list[str] = []
    result = run_local_algorithm(g, alg, trace=lines.append)
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    outputs = sorted(result.outputs.items())
    h.update(json.dumps(outputs, sort_keys=True).encode())
    h.update(f"{result.rounds_used} {result.max_message_bits}".encode())
    return h.hexdigest()


# (name, make, run_digest, sends_digest)
GOLDEN = [
    ("star-forest weak_layered(C4, 3)",
     lambda: (weak_layered(numbered_cycle(4), 3), StarForestAlgorithm()),
     "119d4b08452132ecbadbe0fa067097969b497e7b671cba9031d0f38f486ca6d3",
     "6db9ee52716f8157d6606d656ee36ebbced691408bb9fa662cc3bcaa3bc64dc4"),
    ("matching-scheme k=1 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(1)),
     "0389ddb38e5eae2a12660c7fc29fed548374d6d4148ba58967a47d332a6fcd1b",
     "73bbc4f437ae0c814338ecb529e3ee7d684ab5568bf0ed0b82074f3cc93c7768"),
    ("matching-scheme k=2 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(2)),
     "9ef0e08577bf1230640f664a526ad27b422fdbfe53b0c6fea3828089e50b3a84",
     "916628eaefb84d0f2ffd937f75db1bd14771a194d26e3951ee3259ca76c99c79"),
    ("matching-scheme k=3 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(3)),
     "660c5b59980bfcada90356dbbc42bc125116ebbced9acb5676b1862c841c294d",
     "7a36df3143905210a6d4f71f4db8bf5c035922b3ab6fc373a4faccde905eb6e6"),
]
GOLDEN_IDS = [name for name, *_ in GOLDEN]


@pytest.mark.parametrize("make, digest", [(m, d) for _, m, d, _ in GOLDEN], ids=GOLDEN_IDS)
def test_golden_run(make, digest):
    g, alg = make()
    assert run_digest(g, alg) == digest


def sends_digest(g, alg) -> str:
    """``run_digest`` without the state digests and ``max_message_bits``.

    It pins what every node sends in every round, the outputs and
    ``rounds_used``, so it survives a change to a state's layout.  A
    line that sends nothing pins no send, so it is left out.
    """
    sent, outputs, rounds_used, _ = sends_and_bits(g, alg)
    h = hashlib.sha256()
    for line in sent:
        h.update(json.dumps(line).encode() + b"\n")
    h.update(json.dumps(outputs, sort_keys=True).encode())
    h.update(str(rounds_used).encode())
    return h.hexdigest()


def sends_and_bits(g, alg, lines=None):
    """Every (round, node, sends) with a send, the sorted outputs,
    ``rounds_used`` and ``max_message_bits``, from one run; its trace
    lines go to ``lines`` if given."""
    lines = [] if lines is None else lines
    result = run_local_algorithm(g, alg, trace=lines.append)
    sent = [[d["round"], d["node"], d["sent"]] for d in map(json.loads, lines) if d["sent"]]
    return sent, sorted(result.outputs.items()), result.rounds_used, result.max_message_bits


def assert_canonical_trace(g, alg):
    lines: list[str] = []
    run_local_algorithm(g, alg, trace=lines.append)
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert line == json.dumps(doc, sort_keys=True)
        assert doc["sent"] == sorted(doc["sent"])


@pytest.mark.parametrize("make", [m for _, m, _, _ in GOLDEN], ids=GOLDEN_IDS)
def test_golden_trace_lines_are_canonical_json(make):
    assert_canonical_trace(*make())


# every shipped LocalAlgorithm, on a graph it accepts
SHIPPED = [
    ("star-forest", StarForestAlgorithm, lambda: random_weak(60, 5, 3)),
    ("matching-scheme", lambda: MatchingSchemeAlgorithm(2),
     lambda: random_bipartite(60, 4, 3)),
    ("all-nodes", AllNodesDominatingSet, lambda: random_weak(30, 3, 4)),
]


@pytest.mark.parametrize("make_alg, make_graph", [(a, g) for _, a, g in SHIPPED],
                         ids=[name for name, _, _ in SHIPPED])
def test_shipped_trace_lines_are_canonical_json(make_alg, make_graph):
    assert_canonical_trace(make_graph(), make_alg())


@pytest.mark.parametrize("make, digest", [(m, d) for _, m, _, d in GOLDEN], ids=GOLDEN_IDS)
def test_golden_scheme_sends(make, digest):
    g, alg = make()
    assert sends_digest(g, alg) == digest


# cases that end with unmatched blacks, whose last-round silence the digest pins
UNMATCHED = [
    ("path black-white-black",
     lambda: build_graph(3, [(0, 1, 1, 1), (1, 2, 2, 1)], [BLACK, WHITE, BLACK])),
    ("K1,3 white centre",
     lambda: build_graph(4, [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1)],
                         [WHITE, BLACK, BLACK, BLACK])),
]

UNMATCHED_SENDS = [
    (0, 1, "aa4e35ed97903c702fbb0ee92efec1d26004a87bb8eb1d9a902efa55709f5f8a"),
    (0, 2, "2684619d6bbab105a0bbe1a2afc8510fd6b3a7c72bb5c1ed152a1fbff71fe679"),
    (1, 1, "3e6e63f8c33c4c8eb0096f99f7d110f2ff89393c4f8f9868827820f76921fb62"),
    (1, 2, "10b517cb3d57aa07f411d5bb28650a99e637c2a86621b7cfcc9e44cf2fbbcb76"),
]


@pytest.mark.parametrize("case, k, digest", UNMATCHED_SENDS,
                         ids=[f"matching-scheme k={k} {UNMATCHED[c][0]}"
                              for c, k, _ in UNMATCHED_SENDS])
def test_golden_scheme_sends_unmatched_blacks(case, k, digest):
    g = UNMATCHED[case][1]()
    assert sends_digest(g, MatchingSchemeAlgorithm(k)) == digest


class DenseScheme(Dense, MatchingSchemeAlgorithm):
    """The scheme stepped at every node in every round: what sparse stepping must match."""


def scheme_pairs():
    return [(MatchingSchemeAlgorithm(k), DenseScheme(k)) for k in (1, 2, 3)]


def star_pairs():
    return [(StarForestAlgorithm(), DenseStar())]


def odd_pipeline_core(g):
    """The coloured core the odd-Δ pipeline runs the star forest on."""
    result = odd_delta_pipeline(g)
    return with_colours(result.h2.base, result.core_colours)


EXACT = (
    [(name, make, scheme_pairs) for name, make in
     [("strong_blowup(C8, 3)", lambda: strong_blowup(numbered_cycle(8), 3))]
     + UNMATCHED
     + [(f"random_bipartite(40, {d}, {s})", lambda d=d, s=s: random_bipartite(40, d, s))
        for d in (2, 3, 4) for s in range(10)]]
    + [(f"star-forest {name}", make, star_pairs) for name, make in
       [("weak_layered(C4, 3)", lambda: weak_layered(numbered_cycle(4), 3)),
        ("strong_blowup(C8, 3)", lambda: strong_blowup(numbered_cycle(8), 3))]
       + [(f"random_weak(40, {d}, {s}{'' if oriented else ', unoriented'})",
           lambda d=d, s=s, o=oriented: random_weak(40, d, s, oriented=o))
          for d in (2, 3, 4, 5) for s in range(10) for oriented in (True, False)]
       + [(f"odd core of random_weak(40, {d}, {s})",
           lambda d=d, s=s: odd_pipeline_core(random_weak(40, d, s)))
          for d, s in ((3, 2), (3, 4), (5, 0), (5, 2))]])


def _at(line: str) -> tuple[int, int]:
    doc = json.loads(line)
    return doc["round"], doc["node"]


@pytest.mark.parametrize("make, pairs", [(m, p) for _, m, p in EXACT],
                         ids=[name for name, _, _ in EXACT])
def test_sparse_stepping_is_exact(make, pairs):
    """Stepping only nodes with mail or a wake-up changes no send, output,
    round count or message size against stepping every node every round.
    The star forest's skipped steps would change no state either, so each
    line of its trace is the dense trace's line at the same (round, node)."""
    g = make()
    for sparse, dense in pairs():
        sparse_lines: list[str] = []
        dense_lines: list[str] = []
        assert (sends_and_bits(g, sparse, sparse_lines)
                == sends_and_bits(g, dense, dense_lines))
        if isinstance(sparse, StarForestAlgorithm):
            dense_at = {_at(line): line for line in dense_lines}
            assert all(dense_at[_at(line)] == line for line in sparse_lines)


SEEDED = [
    (random_weak, 200, 3, 1,
     "d760f59e090c6c9d3ee0e4a5d184e76610455a89a79c3e882d2a0488a6733839"),
    (random_weak, 60, 4, 7,
     "6db133355c10a1f2cd02af37b9b06914b09d09e9e362e58860050f41039d7c1b"),
    (random_bipartite, 200, 3, 1,
     "fa0b984323e505f0135799013c83ade2dc91689b593b4fd4a4795a7808a5e5e8"),
    (random_bipartite, 60, 4, 7,
     "c9ea998f24c2353cace3569a2d1d7ce6777437042377ae177b77d570f5548e49"),
]


@pytest.mark.parametrize("family, n, delta, seed, digest", SEEDED,
                         ids=[f"{f.__name__}({n}, {d}, {s})" for f, n, d, s, _ in SEEDED])
def test_golden_seeded_instance(family, n, delta, seed, digest):
    assert hashlib.sha256(dumps(family(n, delta, seed)).encode()).hexdigest() == digest


def json_digest(g) -> str:
    return hashlib.sha256(dumps(g).encode()).hexdigest()


def recoloured_shuffled_relabelled():
    g = random_weak(40, 3, 5, oriented=False)
    g = shuffle_ports(with_colours(g, random_weak_colouring(g, 2)), 9)
    return relabel(g, random.Random(3).sample(range(g.n), g.n))


def oriented_recoloured_shuffled_relabelled():
    g = random_weak(40, 3, 5)
    g = shuffle_ports(with_colours(g, random_weak_colouring(g, 2)), 9)
    return relabel(g, random.Random(3).sample(range(g.n), g.n))


def odd_core(g):
    part = partition_abc(g)
    return induced_subgraph(g, part.a | part.b)[0]


def dummy_augmented(g):
    return build_h2(g, partition_abc(g)).graph


DERIVED = [
    ("with_colours-shuffle_ports-relabel random_weak(40, 3, 5)",
     recoloured_shuffled_relabelled,
     "b70acc3c2d0aea6b855df7a8df6f98f4596995f92043c1dd477eb85cbd19b543"),
    ("with_colours-shuffle_ports-relabel oriented random_weak(40, 3, 5)",
     oriented_recoloured_shuffled_relabelled,
     "1351a5c3567da67853b01cd785e63294ce97e27627cb2e6d21b94b65b8ae730a"),
    ("disjoint_union random_weak(30, 3, 2) random_weak(20, 4, 3)",
     lambda: disjoint_union(random_weak(30, 3, 2), random_weak(20, 4, 3)),
     "36466e785c8237e5541f6746bd358b39e95dbc2d571d691ece9c239ebd085904"),
    ("induced_subgraph odd core of random_weak(60, 4, 7)",
     lambda: odd_core(random_weak(60, 4, 7)),
     "a52058e9619682941d13edb1917848c9ab99d6990e5ed473230151ba164bed85"),
    ("build_h2 random_weak(60, 3, 8)",
     lambda: dummy_augmented(random_weak(60, 3, 8)),
     "3f2cf3b95c18732f5a2171d7624acbb484b43a497f99e6d5e59ccfbc5cae6f50"),
]


@pytest.mark.parametrize("make, digest", [(m, d) for _, m, d in DERIVED],
                         ids=[name for name, _, _ in DERIVED])
def test_golden_derived_copy(make, digest):
    assert json_digest(make()) == digest


CANONICAL_GRAPHS = (
    [(f"{f.__name__}({n}, {d}, {s})", lambda f=f, n=n, d=d, s=s: f(n, d, s))
     for f, n, d, s, _ in SEEDED]
    + [(name, make) for name, make, _ in DERIVED]
    + [("uncoloured random_weak(40, 3, 5)",
        lambda: with_colours(random_weak(40, 3, 5), None)),
       ("unoriented random_weak(40, 3, 5)",
        lambda: random_weak(40, 3, 5, oriented=False))])


@pytest.mark.parametrize("make", [m for _, m in CANONICAL_GRAPHS],
                         ids=[name for name, _ in CANONICAL_GRAPHS])
def test_graph_documents_are_canonical_json(make):
    g = make()
    assert dumps(g) == json.dumps(graph_to_json_dict(g), sort_keys=True)
