"""Run every workload, untraced and traced, and keep one results file.

    python3 bench/suite.py --seed 1 --out .bench_out/results.json

Each workload runs in its own process through ``bench/run.py``.  The
results file holds each run's record: environment, parameters, metrics
with units, sample counts, the base of every ratio, and for the traced
run the per-layer metrics and the tracing overhead.  Compare two results
files with ``bench/compare.py``.  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from program import OUT, ROOT
from spec import RUN_SECONDS, WORKLOADS


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    record_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    record_path.unlink(missing_ok=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record["exit_code"] = proc.returncode
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(OUT / "results.json"))
    args = parser.parse_args(argv)

    results = {"seed": args.seed, "seconds": RUN_SECONDS, "runs": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            results["runs"][f"{workload}/trace{trace}"] = run_one(
                workload, args.seed, RUN_SECONDS, trace)
    OUT.mkdir(exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"results written to {args.out}")
    return 0 if all(r["exit_code"] == 0 for r in results["runs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
