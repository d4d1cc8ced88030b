"""Golden behaviour of the simulator: traces and outputs pinned by digest.

Each case runs one per-node algorithm on a deterministic construction
and hashes every trace line, the sorted outputs, ``rounds_used`` and
``max_message_bits``.  A change to the engine or to a ``step`` function
that alters any message, state or output changes the digest.  Only
deterministic generators are used, so a change to the seeded random
families leaves these digests alone; those families are pinned
separately, by a digest of each instance's JSON document.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from localgraphs import run_local_algorithm
from localgraphs.generators import (numbered_cycle, random_bipartite,
                                    random_weak, strong_blowup, weak_layered)
from localgraphs.graph import dumps
from localgraphs.matching import MatchingSchemeAlgorithm
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
     "5ba7b3e65235f0b510d4cb3bf88ae848e9f71cc86676fda136259c4430977d13"),
    ("matching-scheme k=2 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(2)),
     "bcd0a8a646567fde31f8e42ca54c3adc519b9d7c39ed6297a8cf07298638dafa"),
    ("matching-scheme k=3 strong_blowup(C8, 3)",
     lambda: (strong_blowup(numbered_cycle(8), 3), MatchingSchemeAlgorithm(3)),
     "29f88f2d80287a55c272332c61715aee6dbfc702ad6bb40f1012686ccbde2f0f"),
]


@pytest.mark.parametrize("make, digest", [(m, d) for _, m, d in GOLDEN],
                         ids=[name for name, _, _ in GOLDEN])
def test_golden_run(make, digest):
    g, alg = make()
    assert run_digest(g, alg) == digest


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
