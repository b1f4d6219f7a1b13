"""Spans around the package's public functions, recorded from outside it.

Each target is patched at the module or class attribute through which the
package itself calls it, so the package's code is untouched; ``installed()``
restores every original on exit.  Spans are kept in memory, each with its
parent, and written out when the run ends.  The traced run uses one worker:
the span stack is not shared across threads.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from urnoverflow import cli, distributions, exact, montecarlo, stats


def _size_arg(args, kwargs):
    """Balls requested from ``<Dist>.sample(self, rng, size)``."""
    return int(kwargs["size"] if "size" in kwargs else args[2])


# (owner, attribute, span name, count taken from the call's arguments)
TARGETS = (
    (cli, "main", "cli", None),
    (cli, "run_experiment", "montecarlo.run_experiment", None),
    (montecarlo, "trial_rng", "montecarlo.trial_rng", None),
    (distributions.Uniform, "sample", "distributions.sample", _size_arg),
    (distributions.Geometric, "sample", "distributions.sample", _size_arg),
    (montecarlo, "streaming_overflow", "allocation.streaming_overflow", None),
    (stats.EmpiricalSummary, "from_histogram", "stats.from_histogram", None),
    (cli, "regime_report", "asymptotics.regime_report", None),
    (cli, "tv_distance_poisson", "stats.gof", None),
    (cli, "chi_square_poisson", "stats.gof", None),
    (cli, "ks_normal", "stats.gof", None),
    (cli, "exact_mean_overflow", "exact.mean_overflow", None),
    (cli, "exact_mean_via_counts", "exact.mean_counts", None),
    (cli, "exact_distribution", "exact.full_dist", None),
    (exact, "binomial_tail", "exact.binomial_tail", None),
)

FIELDS = ("name", "parent", "start_ns", "end_ns", "count", "op")


class Tracer:
    """In-memory span recorder; one list entry per call, in FIELDS order."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1            # index of the benchmark op being traced
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, 0, 0,
                          count(args, kwargs) if count else 0, self.op])
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid][2], spans[sid][3] = t0, t1
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    patched = self._wrap(name, raw, count)
                setattr(owner, attr, patched)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def by_name(self) -> dict:
        """name -> {"calls", "total_ns", "self_ns", "count"}."""
        child_ns = [0] * len(self.spans)
        for name, parent, t0, t1, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        agg = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0})
        for sid, (name, _, t0, t1, count, _) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_ns"] += t1 - t0
            a["self_ns"] += t1 - t0 - child_ns[sid]
            a["count"] += count
        return dict(agg)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": FIELDS, "spans": self.spans}, fh,
                      separators=(",", ":"))
