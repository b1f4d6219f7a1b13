"""Replication harness with seeded determinism.

Trial i draws from PCG64 seeded exactly as by
``numpy.random.SeedSequence(entropy=seed, spawn_key=(i,))``, a counter-based
derivation: the stream depends only on (seed, i), never on which trials ran
before or on which thread.  The SeedSequence hash is computed for a block of
1,024 trials in one numpy pass and gives the same words bit for bit, so only
seeding PCG64 itself is left per trial.  Every run splits the trials into
spans, counts each span's (V, L, M) triples (a single span on the calling
thread, several on a thread pool) and merges the counts, an
order-insensitive integer sum, so results are bit-identical for any thread
count.  With identity_checks, the count route confirms each trial's (V, L, M)
on its sorted draw (``allocation.count_draw``).
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# streaming_overflow is unused here; benchmark/tracing.py patches it by name
from .allocation import count_draw, streaming_overflow  # noqa: F401
from .distributions import BoxDistribution
from .stats import EmpiricalSummary

__all__ = ["ExperimentConfig", "run_experiment", "trial_rng"]

BLOCK = 1024            # trials whose streams are derived in one numpy pass
MAX_TRIALS = 2**32      # trial indices stay one 32-bit spawn-key word


@dataclass(frozen=True)
class ExperimentConfig:
    dist: BoxDistribution
    n: int
    r: int
    reps: int
    seed: int
    identity_checks: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.reps < 1:
            raise ValueError("n, r and reps must all be >= 1")
        if self.reps > MAX_TRIALS:
            raise ValueError(f"reps must be <= 2**32, got {self.reps}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The deterministic random stream of trial i under the given seed:
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(trial,)))``."""
    if not (0 <= seed < 2**64 and 0 <= trial < MAX_TRIALS):
        raise ValueError(f"need 0 <= seed < 2**64 and 0 <= trial < 2**32, "
                         f"got seed={seed}, trial={trial}")
    block, row = divmod(trial, BLOCK)
    return np.random.Generator(np.random.PCG64(_Words(_block_words(seed, block)[row])))


class _Words(np.random.bit_generator.ISeedSequence):
    """One trial's precomputed SeedSequence state: the 4 uint64 words PCG64
    asks for when it is seeded."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint64):
        return self._row


# numpy.random.SeedSequence's hash constants (pool of four uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@lru_cache(maxsize=16)
def _block_words(seed: int, block: int) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
    for the BLOCK trials i of one block, as a read-only (BLOCK, 4) array.

    SeedSequence(seed).pool is numpy's own hash of the seed words: a one-word
    spawn key only pads them with zeros to the pool size, which hashes the
    same, and filling the pool advances the first hash constant 16 times.
    What is left is SeedSequence's mix of the spawn key i < 2**32 into that
    pool, then generate_state, on uint32 arrays (all arithmetic mod 2**32);
    the pool words are length-1 arrays, so each mix spans the whole block.
    """
    hash_const = _INIT_A * pow(_MULT_A, 16, 1 << 32) & 0xFFFFFFFF
    trials = np.arange(BLOCK, dtype=np.uint32) + np.uint32(block * BLOCK)
    pool = []
    for word in np.random.SeedSequence(seed).pool.reshape(4, 1):
        value = trials ^ hash_const
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value *= hash_const
        mixed = word * _MIX_MULT_L - (value ^ (value >> 16)) * _MIX_MULT_R
        pool.append(mixed ^ (mixed >> 16))

    hash_const = _INIT_B
    state = np.empty((BLOCK, 8), dtype=np.uint32)
    for word in range(8):
        value = pool[word % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value *= hash_const
        state[:, word] = value ^ (value >> 16)
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
    words.setflags(write=False)
    return words


def _trial_stats(cfg: ExperimentConfig, trial: int) -> tuple[int, int, int]:
    keys = cfg.dist.sample(trial_rng(cfg.seed, trial), cfg.n)
    return count_draw(keys, cfg.r, cfg.identity_checks)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run config.reps independent trials; map each of V, L, M -> its summary."""
    chunk = -(-config.reps // config.threads)
    spans = [range(lo, min(lo + chunk, config.reps))
             for lo in range(0, config.reps, chunk)]

    def count_span(span):
        return Counter(_trial_stats(config, t) for t in span)

    if len(spans) == 1:
        triples = count_span(spans[0])
    else:
        triples = Counter()
        # the pool starts a thread per span until max_workers, and threads
        # beyond the CPUs only contend; the spans alone fix the result
        with ThreadPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
            for part in pool.map(count_span, spans):
                triples += part
    hists = (Counter(), Counter(), Counter())
    for triple, count in triples.items():
        for hist, value in zip(hists, triple):
            hist[value] += count
    return {name: EmpiricalSummary.from_histogram(hist) for name, hist in zip("VLM", hists)}
