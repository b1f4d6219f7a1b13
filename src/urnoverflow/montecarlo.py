"""Replication harness with seeded determinism.

Trial i draws from ``numpy.random.SeedSequence(entropy=seed, spawn_key=(i,))``,
a counter-based derivation: the stream depends only on (seed, i), never on
which trials ran before or on which thread.  Aggregation is an
order-insensitive integer histogram merge, so results are bit-identical for
any thread count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .allocation import (full_counts, overflow_from_counts, overflow_stats,
                         streaming_overflow)
from .distributions import BoxDistribution
from .stats import EmpiricalSummary

__all__ = ["ExperimentConfig", "run_experiment", "trial_rng"]


@dataclass(frozen=True)
class ExperimentConfig:
    dist: BoxDistribution
    n: int
    r: int
    reps: int
    seed: int
    collect: tuple = ("V", "L", "M")
    identity_checks: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.reps < 1:
            raise ValueError("n, r and reps must all be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        bad = set(self.collect) - {"V", "L", "M"}
        if bad or not self.collect:
            raise ValueError(f"collect must be a non-empty subset of V,L,M, got {self.collect}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The deterministic random stream of trial i under the given seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _trial_stats(cfg: ExperimentConfig, trial: int) -> tuple[int, int, int]:
    rng = trial_rng(cfg.seed, trial)
    balls = cfg.dist.sample(rng, cfg.n)
    stats = overflow_stats(balls, cfg.r)
    if cfg.identity_checks:
        _, counts = np.unique(balls, return_counts=True)
        by_counts = (overflow_from_counts(counts, cfg.n, cfg.r),
                     *full_counts(counts, cfg.r))
        if stats != by_counts:
            raise AssertionError(
                f"telescoping identity violated at trial {trial}: "
                f"sort-and-shift (V, L, M)={stats} count route={by_counts}")
        if streaming_overflow(balls, cfg.r) != stats[0]:
            raise AssertionError(f"streaming/count overflow mismatch at trial {trial}")
    return stats


def _run_range(cfg: ExperimentConfig, lo: int, hi: int) -> dict:
    hists = {name: Counter() for name in cfg.collect}
    for trial in range(lo, hi):
        v, full, exact = _trial_stats(cfg, trial)
        if "V" in hists:
            hists["V"][v] += 1
        if "L" in hists:
            hists["L"][full] += 1
        if "M" in hists:
            hists["M"][exact] += 1
    return hists


def run_experiment(config: ExperimentConfig) -> dict:
    """Run config.reps independent trials; map statistic name -> summary."""
    if config.threads == 1:
        merged = _run_range(config, 0, config.reps)
    else:
        chunk = -(-config.reps // config.threads)
        spans = [(lo, min(lo + chunk, config.reps))
                 for lo in range(0, config.reps, chunk)]
        merged = {name: Counter() for name in config.collect}
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            for part in pool.map(lambda span: _run_range(config, *span), spans):
                for name, hist in part.items():
                    merged[name] += hist
    return {name: EmpiricalSummary.from_histogram(hist)
            for name, hist in merged.items()}

