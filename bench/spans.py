"""Spans and counters around the calls into each stockcast module.

The wrappers are installed where each caller looks a name up: ``harness``
imports ``solve_recursive``, ``cf_p0k`` and the fit and score functions
by name, ``closed_form`` and ``demand`` import the special functions by
name, and the engine reaches the demand mass through methods on the
model classes. ``Tracer.installed`` puts them in place for one round and
restores the originals afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent) and call counts, kept in memory."""

    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def timed(self, name: str, fn, count=None, errors=()):
        """``fn`` inside a span; ``count(args, kwargs)`` returns extra
        counts to add, and exceptions of type ``errors`` are counted
        under ``<name>.errors`` before they propagate."""
        open_, close, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            if count is not None:
                counts.update(count(args, kwargs))
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            except errors:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                close(idx)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, sc):
        """Wrap the stockcast modules of package ``sc`` for the duration."""
        saved = []

        def put(owner, attr, wrap):
            # a name the program no longer has is left out; its metrics then read 0
            if attr in owner.__dict__:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrap(owner.__dict__[attr]))

        harness, closed_form, demand, special = sc.harness, sc.closed_form, sc.demand, sc.special

        def cells(args, kwargs):
            m = kwargs.get("m", args[1] if len(args) > 1 else None)
            horizon = kwargs.get("horizon", args[2] if len(args) > 2 else None)
            return {"engine.cells": (int(m) + 1) * int(horizon)}

        put(harness.SalesDataset, "series", lambda fn: self.counted("harness.series", fn))
        for attr in ("fit_frequentist", "estimate_moments", "select_bnbp"):
            put(harness, attr, lambda fn: self.timed("demand.fit", fn))
        put(harness, "solve_recursive", lambda fn: self.timed("engine.solve", fn, count=cells))
        put(harness, "cf_p0k", lambda fn: self.timed("closed_form.p0k", fn))
        for attr in ("normalize_curve", "rps_discrete", "uniform_forecast"):
            put(harness, attr, lambda fn: self.timed("metrics.score", fn))
        for owner in (closed_form, demand):
            put(owner, "reg_upper_gamma", lambda fn: self.timed("special.gamma", fn, errors=special.ConvergenceError))
            put(owner, "reg_inc_beta", lambda fn: self.timed("special.beta", fn, errors=special.ConvergenceError))
        for cls in vars(demand).values():
            if isinstance(cls, type) and issubclass(cls, demand.DemandModel):
                put(cls, "alpha", lambda fn: self.counted("demand.mass", fn))
                put(cls, "beta", lambda fn: self.counted("demand.mass", fn))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of spans, summed duration, summed self
        time (duration minus the time its direct children cover)."""
        calls: Counter = Counter()
        dur: Counter = Counter()
        covered: Counter = Counter()
        names, parents = self.names, self.parents
        for idx, (name, start, end) in enumerate(zip(names, self.starts, self.ends)):
            calls[name] += 1
            dur[name] += end - start
            parent = parents[idx]
            if parent >= 0:
                covered[names[parent]] += end - start
        self_time = Counter({name: dur[name] - covered[name] for name in dur})
        return calls, dur, self_time

    def write(self, path: Path) -> None:
        """Spans as CSV: id, parent, name, start and end in microseconds
        from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_us,end_us\n")
            for idx, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                handle.write(f"{idx},{parent},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
