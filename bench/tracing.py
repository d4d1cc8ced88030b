"""In-memory span tracer that wraps program functions from the outside.

A traced run replaces each target function, at its defining module and
at every ``from ... import`` alias, by a wrapper that records a span
(name, start, end, parent, check id) and optionally bumps counters from
the call's arguments and result.  :meth:`Tracer.restore` puts every
original attribute back, so no wrapper outlives the traced run.
"""

from __future__ import annotations

import functools
import gzip
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

NO_PARENT = -1
SETUP_CHECK = -1


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``attr`` may be dotted (``Class.method``).  A target whose module is
    not the function's defining module names a single alias site; a
    target at the defining module also covers every alias that no other
    target names.  ``prepare(args, kwargs)`` runs before each call and may
    add keyword arguments; its return value reaches
    ``hook(counters, args, kwargs, result, token)``, which runs after.
    """

    span: str
    module: str
    attr: str
    hook: Callable | None = None
    prepare: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.check = array("i")
        self.counters: Counter = Counter()
        self.check_id = SETUP_CHECK
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.check.append(self.check_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, hook, prepare = target.span, target.hook, target.prepare
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = prepare(args, kwargs) if prepare is not None else None
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(counters, args, kwargs, result, token)
            return result

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self, targets: Iterable[Target], modules: Iterable[types.ModuleType]) -> None:
        """Wrap every target at its sites; see :class:`Target` for the rule."""
        modules = list(modules)
        by_name = {m.__name__: m for m in modules}
        targets = list(targets)
        explicit = {(t.module, t.attr) for t in targets}
        plan: list[tuple[object, str, object, Target]] = []
        for t in targets:
            owner, leaf = _resolve_owner(by_name[t.module], t.attr)
            fn = owner.__dict__[leaf]
            plan.append((owner, leaf, fn, t))
            if "." in t.attr or getattr(fn, "__module__", None) != t.module:
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn and m is not owner and (m.__name__, attr) not in explicit:
                        plan.append((m, attr, fn, t))
        for owner, attr, fn, t in plan:
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, t))

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced, newest first."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: index, name, start, end, parent, check."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\tcheck\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.check[i]}\n")


def _resolve_owner(module, dotted: str):
    owner = module
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def self_times(start: Sequence, end: Sequence, parent: Sequence) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may nest or overlap each other; their intervals are merged
    and clipped to the parent before subtracting.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        intervals = sorted((max(start[k], lo_p), min(end[k], hi_p)) for k in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
