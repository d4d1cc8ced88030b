"""The measuring loop every workload shares.

A workload yields passes: the same fixed list of checks, again and again.
A check is one exactly verified unit of work, a callable that raises on
a wrong output.  The loop runs whole passes until the time is spent and
enough checks were sampled for the workload's tail percentile.  Because
every pass does the same work, the i-th check of every pass is one
repeated measurement: taking its median over passes sheds the bursts of
contention a shared host adds, check by check.

Contention on a shared host also comes in spells that last minutes and
slow everything alike.  So the loop times a fixed pure-Python probe
every ``PROBE_EVERY_S`` between checks, and the reported times are
host-normalised: each measured duration is scaled by ``REF_PROBE_S``
over the median probe time of its pass.  They read as seconds on a host
where the probe takes ``REF_PROBE_S``.  The raw durations are kept too.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

import stats

Check = tuple[str, Callable[[], None]]

REF_PROBE_S = 0.005    # the probe's time on this benchmark's reference host
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: a gauge of host speed."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30000):
        table[i % 997] = table.get(i % 500, 0) + i
    sorted(table.items())
    return time.perf_counter() - t0


def host_factor(probes: list[float]) -> float:
    """Scale that turns durations measured beside ``probes`` into reference seconds."""
    return REF_PROBE_S / stats.median(probes)


class CheckFailed(AssertionError):
    """A program output broke one of the benchmark's exact checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Meter:
    """Counts a workload's checks add while they run."""

    sim_node_rounds: int = 0
    sim_s: float = 0.0
    counters: Counter = field(default_factory=Counter)

    def simulated(self, nodes: int, rounds: int, seconds: float) -> None:
        self.sim_node_rounds += nodes * rounds
        self.sim_s += seconds


@dataclass
class Measurement:
    # per pass, per check: latency, and simulated (node-rounds, seconds)
    latencies_s: list[list[float]] = field(default_factory=list)
    sim: list[list[tuple[int, float]]] = field(default_factory=list)
    probes_s: list[list[float]] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    meter: Meter = field(default_factory=Meter)
    first_failures: list[str] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return sum(len(lat) for lat in self.latencies_s)

    def record_failure(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.first_failures) < 5:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.first_failures.append(f"{label}: {detail}")
            print(f"check failed: {label}: {detail}", file=sys.stderr)


def measure(passes: Iterator[list[Check]], meter: Meter, seconds: float, *,
            min_checks: int = 1, min_passes: int = 1, tracer=None) -> Measurement:
    """Run whole passes until ``seconds`` elapse and both minimums are met."""
    m = Measurement(meter=meter)
    clock = time.perf_counter
    started = clock()
    for checks in passes:
        lat: list[float] = []
        sim: list[tuple[int, float]] = []
        probes = [probe()]
        last_probe = clock()
        for label, check in checks:
            if clock() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = clock()
            if tracer is not None:
                tracer.check_id = m.attempted
            m.attempted += 1
            rounds, secs = meter.sim_node_rounds, meter.sim_s
            t0 = clock()
            try:
                check()
            except Exception as exc:   # every failure is counted, never hidden
                m.record_failure(label, exc)
            lat.append(clock() - t0)
            sim.append((meter.sim_node_rounds - rounds, meter.sim_s - secs))
        probes.append(probe())
        now = clock()
        m.pass_s.append(sum(lat))
        m.latencies_s.append(lat)
        m.sim.append(sim)
        m.probes_s.append(probes)
        if (now - started >= seconds and m.checks >= min_checks
                and len(m.pass_s) >= min_passes):
            break
    m.elapsed_s = clock() - started
    return m


def end_to_end(m: Measurement, normalised: bool = True) -> dict[str, float]:
    """The timing metrics of one measurement (set-up and memory come separately).

    Each check's latency is its median over the passes, host-normalised
    unless ``normalised`` is false.  ``wall_s`` adds those up into one
    pass, ``check_p50_ms`` is their median, and the throughputs are taken
    against them.
    """
    scale = [host_factor(p) if normalised else 1.0 for p in m.probes_s]
    check_s = [stats.median([x * f for x, f in zip(samples, scale)])
               for samples in zip(*m.latencies_s)]
    wall = sum(check_s)
    sim_rounds = sum(rounds for rounds, _ in m.sim[0])
    sim_s = sum(stats.median([secs * f for (_, secs), f in zip(samples, scale)])
                for samples in zip(*m.sim))
    return {
        "wall_s": wall,
        "checks_per_s": len(check_s) / wall,
        "check_p50_ms": 1e3 * stats.median(check_s),
        "sim_node_rounds_per_s": sim_rounds / sim_s if sim_s else 0.0,
    }


def latency_tail(m: Measurement, pct: float) -> dict:
    """Every latency sample at ``pct`` and at the highest percentile the
    ten-beyond rule allows, with the sample counts behind them."""
    every = [x for lat in m.latencies_s for x in lat]
    top = stats.highest_reportable(len(every))
    return {"samples": len(every), "pct": pct,
            "ms": 1e3 * stats.percentile(every, pct),
            "beyond": stats.samples_beyond(len(every), pct),
            "highest_pct": top,
            "highest_ms": None if top is None else 1e3 * stats.percentile(every, top)}
