"""Locate and import the program under test from the checkout's sources."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = ROOT / ".bench_out"

MODULES = ("graph", "engine", "oracles", "oddds", "generators", "starforest",
           "matching", "baselines", "cli")


class MissingProgram(RuntimeError):
    """The checkout lacks the sources or data the benchmark needs."""


def check_checkout() -> None:
    for path in (SRC / "localgraphs" / "__init__.py", DATA / "connected_n2_8.g6",
                 DATA / "bipartite_connected_n2_10.g6"):
        if not path.is_file():
            raise MissingProgram(f"missing {path.relative_to(ROOT)}")


def import_program() -> SimpleNamespace:
    """Import ``localgraphs`` afresh, so repeated set-ups pay for it each time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "localgraphs" or m.startswith("localgraphs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("localgraphs")
    if Path(pkg.__file__).resolve().parent != SRC / "localgraphs":
        raise MissingProgram(f"imported localgraphs from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"localgraphs.{name}") for name in MODULES}
    return SimpleNamespace(package=pkg, **mods)


def all_modules(lg: SimpleNamespace) -> list:
    return [lg.package] + [getattr(lg, name) for name in MODULES]


def environment() -> dict:
    """Python version, CPU counts and commit for the results record."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit,
    }
