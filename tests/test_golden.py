"""Golden behaviour of the simulator: traces and outputs pinned by digest.

Each case runs one per-node algorithm on a deterministic construction
and hashes every trace line, the sorted outputs, ``rounds_used`` and
``max_message_bits``.  A change to the engine or to a ``step`` function
that alters any message, state or output changes the digest.  Only
deterministic generators are used, so a change to the seeded random
families leaves these digests alone.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from localgraphs import run_local_algorithm
from localgraphs.generators import numbered_cycle, strong_blowup, weak_layered
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
