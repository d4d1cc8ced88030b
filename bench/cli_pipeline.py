"""``cli-pipeline``: the ``localgraph`` command line, called in-process.

Each pass calls ``localgraphs.cli.main(argv)`` with stdout captured and
files in a temporary directory under the checkout: ``gen`` for four
families (two seeded graphs of each random one at n = 1000, so that
generation is a visible share and one graph's edge count does not set
the pass), ``run`` for star-ds (once with ``--trace``), star-matching,
matching-scheme ``--k 2 --oracle --assert-oracle`` and odd-ds,
``verify`` on a solution file built from every run report, and
``oracle`` on the small graph.  Every command must exit 0; every report
with an optimum must have a ratio within ``paper_bound``, and every
solution must verify.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from harness import Check, Meter, require
from program import OUT

NAME = "cli-pipeline"
PARAMS = {
    "big_n": 1000, "big_delta": 3,          # random-weak and random-bipartite
    "big_graphs": 2,                         # of each
    "blowup_cycle": 200, "layered_cycle": 100,
    "small_n": 20, "small_delta": 3,         # random-weak for the exact oracle
    "scheme_k": 2,
}
TAIL_PCT = 75
SETUP_REPEATS = 25  # fixed: each fresh import leaves memory behind, which peak RSS sees

_SOLUTION_KIND = {"star-ds": "dominating-set", "odd-ds": "dominating-set",
                  "star-matching": "matching", "matching-scheme": "matching"}


class State:
    def __init__(self, lg, big_seeds, small_seed):
        self.lg = lg
        self.big_seeds = big_seeds
        self.small_seed = small_seed
        OUT.mkdir(exist_ok=True)
        # removed when the state is collected or the process exits
        self._tmp = tempfile.TemporaryDirectory(prefix="cli-", dir=OUT)
        self.workdir = Path(self._tmp.name)


def setup(lg, seed: int) -> State:
    """Pick the small graph's seed: the first from ``seed`` whose maximum
    degree is odd, since odd-ds rejects even degree bounds."""
    rng = random.Random(f"cli:{seed}")
    big_seeds = [rng.getrandbits(31) for _ in range(PARAMS["big_graphs"])]
    small_seed = rng.getrandbits(31)
    while lg.generators.random_weak(PARAMS["small_n"], PARAMS["small_delta"],
                                    small_seed).max_degree % 2 == 0:
        small_seed += 1
    return State(lg, big_seeds, small_seed)


def call(state: State, argv: list[str], meter: Meter, tracer=None) -> str:
    """Run one CLI command; its stdout, after requiring exit code 0."""
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out):
        code = state.lg.cli.main(argv)
    text = out.getvalue()
    meter.counters["cli.report_bytes"] += len(text.encode())
    require(code == 0, f"exit code {code}: {text.strip()[:200]}")
    return text


def _pass(state: State, meter: Meter, tracer) -> list[Check]:
    d = state.workdir
    p = PARAMS
    graphs = {}
    for i, seed in enumerate(state.big_seeds):
        for name, family in (("rw", "random-weak"), ("rb", "random-bipartite")):
            graphs[f"{name}{i}"] = ["--family", family, "--n", str(p["big_n"]),
                                    "--delta", str(p["big_delta"]), "--seed", str(seed)]
    graphs.update({
        "sb": ["--family", "strong-blowup", "--n", str(p["blowup_cycle"]), "--delta", "3"],
        "wl": ["--family", "weak-layered", "--n", str(p["layered_cycle"]), "--delta", "3"],
        "small": ["--family", "random-weak", "--n", str(p["small_n"]),
                  "--delta", str(p["small_delta"]), "--seed", str(state.small_seed)],
    })
    k = str(p["scheme_k"])
    runs = [("rw0", "star-ds", ["--trace", str(d / "trace.jsonl")])]
    for i in range(1, len(state.big_seeds)):
        runs.append((f"rw{i}", "star-ds", []))
    for i in range(len(state.big_seeds)):
        runs += [(f"rb{i}", "star-matching", ["--oracle"]),
                 (f"rb{i}", "matching-scheme", ["--k", k, "--oracle", "--assert-oracle"])]
    runs += [
        ("sb", "matching-scheme", ["--k", k, "--oracle", "--assert-oracle"]),
        ("wl", "star-ds", []),
        ("small", "star-ds", ["--oracle"]),
        ("small", "odd-ds", ["--oracle"]),
    ]
    reports: dict[int, dict] = {}
    checks: list[Check] = []

    for name, args in graphs.items():
        def gen(name=name, args=args):
            path = d / f"{name}.json"
            path.unlink(missing_ok=True)
            call(state, ["gen", *args, "--out", str(path)], meter, tracer)
            require(path.stat().st_size > 0, f"gen wrote nothing to {path.name}")
        checks.append((f"gen {name}", gen))

    for idx, (name, alg, extra) in enumerate(runs):
        def run(idx=idx, name=name, alg=alg, extra=extra):
            t0 = time.perf_counter()
            doc = json.loads(call(state, ["run", "--graph", str(d / f"{name}.json"),
                                          "--alg", alg, *extra], meter, tracer))
            meter.simulated(doc["n"], doc["rounds_used"], time.perf_counter() - t0)
            if "--trace" in extra:
                size = Path(extra[extra.index("--trace") + 1]).stat().st_size
                require(size > 0, "empty trace file")
                meter.counters["cli.trace_bytes"] += size
            if "--oracle" in extra:
                require(doc["optimal_size"] is not None, "no optimum in an --oracle report")
                opt, size = doc["optimal_size"], doc["solution_size"]
                minimize = _SOLUTION_KIND[alg] == "dominating-set"
                ratio = Fraction(size, opt) if minimize else Fraction(opt, size)
                require(ratio <= Fraction(doc["paper_bound"]),
                        f"{alg} ratio {ratio} above paper_bound {doc['paper_bound']}")
            require(doc["solution_size"] == len(doc["members"]), "size differs from members")
            reports[idx] = doc
        checks.append((f"run {alg} on {name}", run))

    for idx, (name, alg, _) in enumerate(runs):
        def verify(idx=idx, name=name, alg=alg):
            sol = d / f"solution-{idx}.json"
            sol.write_text(json.dumps({"kind": _SOLUTION_KIND[alg],
                                       "members": reports[idx]["members"]}))
            doc = json.loads(call(state, ["verify", "--graph", str(d / f"{name}.json"),
                                          "--solution", str(sol)], meter, tracer))
            require(doc["ok"] is True, f"verify rejected {alg} on {name}: {doc['violations']}")
        checks.append((f"verify {alg} on {name}", verify))

    def oracle():
        doc = json.loads(call(state, ["oracle", "--graph", str(d / "small.json"),
                                      "--problem", "ds"], meter, tracer))
        star = next(reports[i] for i, r in enumerate(runs) if r[:2] == ("small", "star-ds"))
        require(doc["size"] == star["optimal_size"], "oracle size differs from run --oracle")
    checks.append(("oracle ds on small", oracle))
    return checks


def passes(state: State, meter: Meter, tracer=None):
    while True:
        yield _pass(state, meter, tracer)
