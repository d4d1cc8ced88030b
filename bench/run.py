"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times (set per
workload), measures untraced and prints every end-to-end metric,
host-normalised (see ``harness``).  With ``--trace 1`` it measures
untraced, then sets up and runs one pass with every layer wrapped, and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results record goes to ``.bench_out/`` and, when
traced, the spans too.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import harness
import stats
from layers import PER_LAYER, TARGETS, layer_metrics
from program import OUT, MissingProgram, all_modules, check_checkout, environment, import_program
from spec import END_TO_END, UNITS, WORKLOADS
from tracing import Tracer

REFERENCE_CHECK = -2
SETUP_PROBES = 3


def timed_setup(workload, seed: int, tracer: Tracer | None = None):
    """(seconds, host factor from probes around it, state) of one set-up."""
    before = [harness.probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    lg = import_program()
    if tracer is not None:
        tracer.install(TARGETS, all_modules(lg))
    state = workload.setup(lg, seed)
    elapsed = time.perf_counter() - t0
    after = [harness.probe() for _ in range(SETUP_PROBES)]
    return elapsed, harness.host_factor(before + after), state


def run_references(workload, state, tracer=None) -> tuple[int, int, list[str]]:
    """Checks done once outside the timed region: (attempted, failed, messages)."""
    refs = getattr(workload, "references", None)
    if refs is None:
        return 0, 0, []
    m = harness.Measurement()
    for label, check in refs(state):
        if tracer is not None:
            tracer.check_id = REFERENCE_CHECK
        m.attempted += 1
        try:
            check()
        except Exception as exc:   # counted as a failed check
            m.record_failure(label, exc)
    return m.attempted, m.failed, m.first_failures


def measure(workload, state, seconds: float):
    meter = harness.Meter()
    return harness.measure(workload.passes(state, meter), meter, seconds,
                           min_checks=stats.min_samples_for(workload.TAIL_PCT), min_passes=3)


def measure_traced(workload, state, tracer: Tracer):
    """One pass with spans: enough for every layer, small enough to keep in memory."""
    meter = harness.Meter()
    return harness.measure(workload.passes(state, meter, tracer), meter, 0, tracer=tracer)


def samples_note(m: harness.Measurement, tail: float) -> dict:
    return {"checks": m.checks, "passes": len(m.pass_s),
            "checks_per_pass": len(m.latencies_s[0]), "latency_tail": harness.latency_tail(m, tail)}


def untraced(workload, seed: int, seconds: float) -> dict:
    setups, factors, state = [], [], None
    for _ in range(workload.SETUP_REPEATS):
        elapsed, factor, state = timed_setup(workload, seed)
        setups.append(elapsed)
        factors.append(factor)
    ref_attempted, ref_failed, ref_msgs = run_references(workload, state)
    m = measure(workload, state, seconds)
    metrics = harness.end_to_end(m)
    metrics["setup_s"] = stats.median([s * f for s, f in zip(setups, factors)])
    raw = harness.end_to_end(m, normalised=False)
    raw["setup_s"] = stats.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": {name: metrics[name] for name, *_ in END_TO_END},
        "attempted": m.attempted + ref_attempted,
        "failed": m.failed + ref_failed,
        "failures": ref_msgs + m.first_failures,
        "samples": samples_note(m, workload.TAIL_PCT),
        "raw_metrics": raw,
        "setup_samples_s": setups,
        "setup_host_factors": factors,
        "pass_s": m.pass_s,
        "pass_host_factors": [harness.host_factor(p) for p in m.probes_s],
        "bases": {"checks": m.checks, "elapsed_s": m.elapsed_s,
                  "sim_node_rounds": m.meter.sim_node_rounds, "sim_s": m.meter.sim_s,
                  "reference_checks": ref_attempted},
    }


def traced(workload, seed: int, seconds: float, spans_path) -> dict:
    setup_u, factor_u, state = timed_setup(workload, seed)
    ref_a, ref_f, ref_msgs = run_references(workload, state)
    plain = measure(workload, state, seconds)
    del state

    tracer = Tracer()
    t0 = time.perf_counter()
    try:
        setup_t, factor_t, state = timed_setup(workload, seed, tracer)
        ref_a2, ref_f2, ref_msgs2 = run_references(workload, state, tracer)
        m = measure_traced(workload, state, tracer)
    finally:
        tracer.restore()
    traced_wall = time.perf_counter() - t0

    e2e_plain = harness.end_to_end(plain)
    e2e_traced = harness.end_to_end(m)
    e2e_plain["setup_s"], e2e_traced["setup_s"] = setup_u * factor_u, setup_t * factor_t
    overhead_pct = 100 * (e2e_plain["checks_per_s"] / e2e_traced["checks_per_s"] - 1)
    counters = tracer.counters + m.meter.counters
    metrics = layer_metrics(tracer, counters, traced_wall, overhead_pct)
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    # one more check: the tracer's own invariant
    failed = plain.failed + m.failed + ref_f + ref_f2
    if metrics["trace.self_sum_s"] > traced_wall:
        failed += 1
        ref_msgs.append("sum of span self times exceeds the traced wall time")
    return {
        "metrics": metrics,
        "attempted": plain.attempted + m.attempted + ref_a + ref_a2 + 1,
        "failed": failed,
        "failures": ref_msgs + ref_msgs2 + plain.first_failures + m.first_failures,
        "samples": {"untraced": samples_note(plain, workload.TAIL_PCT),
                    "traced": samples_note(m, workload.TAIL_PCT)},
        "overhead": {name: e2e_traced[name] - e2e_plain[name] for name in e2e_plain},
        "untraced_e2e": e2e_plain,
        "traced_e2e": e2e_traced,
        "spans_file": str(spans_path.relative_to(OUT.parent)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload][0]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced(workload, args.seed, args.seconds, OUT / f"spans-{tag}.tsv.gz")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        result = untraced(workload, args.seed, args.seconds)
        units = UNITS

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "params": workload.PARAMS, "tail_pct": workload.TAIL_PCT,
              "fail_ratio": stats.fail_ratio(result["failed"], result["attempted"]),
              **result,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, value in result["metrics"].items():
        print(f"{args.workload:>12}  {name:<48} {value:>16.6g} {units[name]}")
    print(f"{args.workload:>12}  fail_ratio {result['failed']}/{result['attempted']}"
          f"  samples {json.dumps(result['samples'])}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
