"""Print each metric's change between two results files.

    python3 bench/compare.py OLD.json NEW.json

Both files come from ``bench/suite.py``.  It only reports: for every
workload and metric it prints the old and new values and the change as a
share of the old, marked ``worse`` when the change goes against the
metric's direction.
It gates nothing; regressions are judged by the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys

from layers import PER_LAYER
from spec import END_TO_END

BETTER = {name: better for name, _, better, _ in END_TO_END}
BETTER.update({name: better for name, _, better in PER_LAYER})


def compare(old: dict, new: dict) -> list[str]:
    lines = []
    old_runs, new_runs = old["runs"], new["runs"]
    for key in sorted(set(old_runs) & set(new_runs)):
        om, nm = old_runs[key].get("metrics", {}), new_runs[key].get("metrics", {})
        for name in [n for n in nm if n in om]:
            a, b = om[name]["value"], nm[name]["value"]
            unit = nm[name]["unit"]
            if a:
                share = (b - a) / abs(a)
                worse = (share > 0) == (BETTER.get(name) == "lower") and share != 0
                change = f"{100 * share:+8.2f} %{'  worse' if worse else ''}"
            else:
                change = "     n/a (old is 0)" if b else "        0"
            lines.append(f"{key:<22} {name:<48} {a:>14.6g} -> {b:<14.6g} {unit:<6} {change}")
    for key in sorted(set(old_runs) ^ set(new_runs)):
        lines.append(f"{key:<22} only in {'old' if key in old_runs else 'new'} file")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
