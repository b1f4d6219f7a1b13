"""Fixed reference work that tracks how fast the host runs right now.

On a shared host the same call can take 1.2 to 1.5 times longer for seconds
or minutes at a time, because neighbours load what the CPU shares with them
(the sibling hyperthread, the caches, memory bandwidth).  Process CPU time
moves with wall time there, so it does not help.  The benchmark therefore
runs a fixed piece of reference work after each timed call and scales the
call by the faster of the two references around it:

    scaled = call seconds * nominal seconds / min(reference before, after)

The faster of the two, because a single 15 ms reference is itself sometimes
caught by a burst; the median over a run's calls then drops the bursts that
caught a call.

A scaled time reads as the call's time on a host where the reference takes
its nominal time, about its time on an unloaded core of the host that
produced the numbers in README.md.

A workload is slowed most by neighbours in what it spends its time on: the
fresh memory a 10**5-ball trial touches, or the interpreter.  So each
workload has reference work shaped like it: a few trials of the same
instance, with the sampler and the sort/reduce written out here in numpy,
or the same kind of small-array interpreter loop as the exact routes.  The
reference never calls the package, so a change to the package moves the
scaled times in full and the reference not at all.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np


def _rng(i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=12345, spawn_key=(i,)))


def _reduce(balls: np.ndarray, r: int) -> int:
    _, counts = np.unique(balls, return_counts=True)
    return (int(np.maximum(counts - r, 0).sum()) + int(np.count_nonzero(counts >= r))
            + int(np.count_nonzero(counts == r)))


def _uniform_trials(m: int, n: int, r: int, trials: int) -> None:
    for i in range(trials):
        _reduce(_rng(i).integers(0, m, size=n), r)


def _geometric_trials(p: float, n: int, r: int, trials: int, ranks: bool = False) -> None:
    for i in range(trials):
        u = _rng(i).random(n)
        balls = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
        _reduce(balls, r)
        if ranks:                 # how many earlier balls chose the same urn
            order = np.argsort(balls, kind="stable")
            s = balls[order]
            change = np.empty(n, dtype=bool)
            change[0] = True
            change[1:] = s[1:] != s[:-1]
            group = np.cumsum(change) - 1
            out = np.empty(n, dtype=np.int64)
            out[order] = np.arange(n) - np.flatnonzero(change)[group]
            int(np.count_nonzero(out >= r))


def _small_array_loop(steps: int) -> None:
    """Binomial pmf recurrences and multinomial weights on tiny arrays."""
    p, q, r = 0.05, 0.95, 3
    pmf = np.zeros(r)
    pmf[0] = 1.0
    tail = total = 0.0
    for _ in range(steps):
        total += tail
        tail += p * pmf[r - 1]
        pmf[1:] = q * pmf[1:] + p * pmf[:-1]
        pmf[0] *= q
    lg = np.array([math.lgamma(c + 1) for c in range(9)])
    logp = np.log(np.full(4, 0.25))
    weights: dict[int, float] = {}
    for k in range(steps // 4):
        c = np.array((k % 9, (k // 9) % 9, 2, 1))
        w = math.exp(-lg[c].sum() + float(c @ logp))
        v = int(8 - np.minimum(c, 2).sum())
        weights[v] = weights.get(v, 0.0) + w


# name -> (reference work, its nominal seconds)
REFERENCE_WORK = {
    "mc_fig3": (partial(_uniform_trials, 25_118, 10_000, 2, 60), 0.017),
    "mc_fig2": (partial(_geometric_trials, 1.29e-6, 100_000, 3, 3), 0.014),
    "mc_fig4_checked": (partial(_geometric_trials, 1e-4, 10_000, 4, 12, ranks=True), 0.017),
    "exact_mix": (partial(_small_array_loop, 3_000), 0.016),
}


class HostClock:
    """A workload's reference work, timed between its calls."""

    def __init__(self, name: str):
        self.work, self.nominal_s = REFERENCE_WORK[name]
        self.work()                           # warm caches and allocators
        self.reference_s: list[float] = []
        self._time()

    def _time(self) -> None:
        t0 = time.perf_counter()
        self.work()
        self.reference_s.append(time.perf_counter() - t0)

    def tick(self) -> float:
        """Run the reference again; return the scale for the calls made
        since the previous tick."""
        self._time()
        return self.nominal_s / min(self.reference_s[-2:])
