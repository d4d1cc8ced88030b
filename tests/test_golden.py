"""Golden behaviour of the simulator: traces and outputs pinned by digest.

Each case runs one per-node algorithm on a deterministic construction
and hashes every trace line, the sorted outputs, ``rounds_used`` and
``max_message_bits``.  A change to the engine or to a ``step`` function
that alters any message, state or output changes the digest.  The
scheme's sends, outputs and round counts are also pinned without the
state digests, so a change to a state's layout alone can be told from a
change in behaviour.  Only
deterministic generators are used, so a change to the seeded random
families leaves these digests alone; those families are pinned
separately, by a digest of each instance's JSON document, and so are
the graph copies derived from them (recolouring, port shuffles,
relabelling, unions, induced subgraphs and the dummy-augmented core).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from localgraphs import run_local_algorithm
from localgraphs.generators import (numbered_cycle, random_bipartite,
                                    random_weak, random_weak_colouring,
                                    shuffle_ports, strong_blowup, weak_layered)
from localgraphs.graph import (disjoint_union, dumps, induced_subgraph, relabel,
                               with_colours)
from localgraphs.matching import MatchingSchemeAlgorithm
from localgraphs.oddds import build_h2, partition_abc
from localgraphs.starforest import StarForestAlgorithm


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


GOLDEN = [
    ("star-forest weak_layered(C4, 3)",
     lambda: (weak_layered(numbered_cycle(4), 3), StarForestAlgorithm()),
     "0fcfee108b7bddcba1fc4b4fd97c6999b7507ce0672849edf0ccdecd793f19bd"),
    ("matching-scheme k=1 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(1)),
     "0ff470ad0b794fc6834345a7ceeff3039d39dea8c2171aaa77ca8055dd94cb81"),
    ("matching-scheme k=2 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(2)),
     "fcd7f975f3eec5d35097974d83579df9b09e1e5248e5d17a8c555de7486ee20c"),
    ("matching-scheme k=3 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(3)),
     "dab823ce589a26cec288be787651b3eebfd648f2b5c3db8f0cafb1fa0dafe437"),
]


@pytest.mark.parametrize("make, digest", [(m, d) for _, m, d in GOLDEN],
                         ids=[name for name, _, _ in GOLDEN])
def test_golden_run(make, digest):
    g, alg = make()
    assert run_digest(g, alg) == digest


def sends_digest(g, alg) -> str:
    """``run_digest`` without the state digests and ``max_message_bits``.

    It pins what every node sends in every round, the outputs and
    ``rounds_used``, so it survives a change to a state's layout.
    """
    lines: list[str] = []
    result = run_local_algorithm(g, alg, trace=lines.append)
    h = hashlib.sha256()
    for line in lines:
        d = json.loads(line)
        h.update(json.dumps([d["round"], d["node"], d["sent"]]).encode() + b"\n")
    h.update(json.dumps(sorted(result.outputs.items()), sort_keys=True).encode())
    h.update(str(result.rounds_used).encode())
    return h.hexdigest()


SENDS = [
    (1, "ec0800642376730be3a6d6b09f6b866ddd3894aad2b9fb5ff000427592a74f77"),
    (2, "9eda8e3a564f2711fa460018676b6ce6c963cca65bdf386b4f916914798c1735"),
    (3, "e211a9a45c305a70d38127f1678484217db884f383db4b8692ce876f8422bfb6"),
]


@pytest.mark.parametrize("k, digest", SENDS,
                         ids=[f"matching-scheme k={k} strong_blowup(C8, 3)" for k, _ in SENDS])
def test_golden_scheme_sends(k, digest):
    g = strong_blowup(numbered_cycle(8), 3)
    assert sends_digest(g, MatchingSchemeAlgorithm(k)) == digest


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


def odd_core(g):
    part = partition_abc(g)
    return induced_subgraph(g, part.a | part.b)[0]


def dummy_augmented(g):
    return build_h2(g, partition_abc(g)).graph


DERIVED = [
    ("with_colours-shuffle_ports-relabel random_weak(40, 3, 5)",
     recoloured_shuffled_relabelled,
     "b70acc3c2d0aea6b855df7a8df6f98f4596995f92043c1dd477eb85cbd19b543"),
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
