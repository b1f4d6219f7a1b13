"""Monte Carlo trials of n balls thrown into capacity-r urns, and the seeded
harness that replicates them: the overflow V, the full-urn count L and the
exactly-full count M.

One sort-and-shift kernel gives all three: on the sorted draw s, a ball has at
least k earlier urn-mates exactly when s[i] == s[i-k], so the overflow V_k at
capacity k counts those positions (V_0 = n), and L_r = V_{r-1} - V_r and
M_r = V_{r-1} - 2 V_r + V_{r+1}.  The keys are compared once, at
k = max(r-1, 1).  On a sorted draw s[i] == s[i+k+1] holds exactly when both
s[i] == s[i+k] and s[i+1] == s[i+k+1] do, since k >= 1 puts s[i+1] between
s[i] and s[i+k]; so the AND of the match flags with themselves shifted by one
marks the matches at k+1, and that AND taken once more the matches at k+2.
Only equality of urn indices matters, so the kernel sorts the keys it is
given; the samplers already draw them as int32 whenever every index fits.
``overflow_stats`` sorts a copy and counts it (``_sorted_stats``), and
``streaming_overflow`` is its V.  ``run_trial`` is the one trial pipeline: it
owns its fresh draw, so it sorts the keys in place before counting them.
With check, which a run's identity_checks sets, the count route (n - sum_m
min(count_m, r), #(count >= r), #(count == r) on the final counts) confirms
its (V, L, M); it reads the counts as the lengths of the runs of equal keys
in the sorted draw, after checking that the draw is sorted, so it needs no
second sort.

Trial i draws from PCG64 seeded exactly as by
``numpy.random.SeedSequence(entropy=seed, spawn_key=(i,))``, a counter-based
derivation: the stream depends only on (seed, i), never on which trials ran
before or on which thread.  The SeedSequence hash is computed for a block of
1,024 trials in one numpy pass and gives the same words bit for bit, so only
seeding PCG64 itself is left per trial.  A uniform law draws its keys from
PCG64's raw words in one vector pass (``distributions.Uniform.sample``)
that gives the keys and generator state of ``Generator.integers``, so the
trial streams and histograms are those of numpy's own draw.  Every run
splits the trials into spans, counts each span's (V, L, M) triples (a
single span on the calling thread, several on a thread pool) and merges
the counts, an order-insensitive integer sum, so results are bit-identical
for any thread count.

Importing this module loads neither numpy.random nor the thread pool, so
the commands that draw nothing (exact, predict) pay for neither: numpy.random
loads on a run's first trial, when ``_block_words`` derives the first block
of streams and registers ``_Words`` as an ``ISeedSequence`` (a plain class,
so its definition needs no numpy.random), and ``concurrent.futures`` only
when a run has more than one span.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import BoxDistribution, _size
from .stats import EmpiricalSummary

__all__ = ["ExperimentConfig", "overflow_stats", "run_experiment", "run_trial",
           "streaming_overflow", "trial_rng"]

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
        for name, low in (("n", 1), ("r", 1), ("reps", 1), ("seed", 0), ("threads", 1)):
            object.__setattr__(self, name, _size(name, getattr(self, name), low))
        if self.reps > MAX_TRIALS:
            raise ValueError(f"reps must be <= 2**32, got {self.reps}")
        if self.seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The deterministic random stream of trial i under the given seed:
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(trial,)))``."""
    seed, trial = _size("seed", seed, 0), _size("trial", trial, 0)
    if not (seed < 2**64 and trial < MAX_TRIALS):
        raise ValueError(f"need 0 <= seed < 2**64 and 0 <= trial < 2**32, "
                         f"got seed={seed}, trial={trial}")
    block, row = divmod(trial, BLOCK)
    return np.random.Generator(np.random.PCG64(_Words(_block_words(seed, block)[row])))


class _Words:
    """One trial's precomputed SeedSequence state: the 4 uint64 words PCG64
    asks for when it is seeded.  ``_block_words`` registers it as an
    ``ISeedSequence`` (module docstring)."""

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
    np.random.bit_generator.ISeedSequence.register(_Words)
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


def overflow_stats(balls: np.ndarray, r: int) -> tuple[int, int, int]:
    """(V, L, M) at capacity r from one sort of the draw.

    V = V_r, L = V_{r-1} - V_r and M = V_{r-1} - 2 V_r + V_{r+1}.
    """
    r, balls = _size("capacity r", r), np.asarray(balls)
    if balls.ndim != 1:
        raise ValueError(f"balls must be 1-d, got shape {balls.shape}")
    return _sorted_stats(np.sort(balls), r)


def _sorted_stats(s: np.ndarray, r: int) -> tuple[int, int, int]:
    """(V, L, M) at capacity r >= 1 of an already sorted draw s, from one key
    comparison at k = max(r-1, 1) and two ANDs (module docstring)."""
    k = max(r - 1, 1)
    at_k = s[k:] == s[:-k]
    at_k1 = at_k[1:] & at_k[:-1]
    v_k, v_k1 = int(np.count_nonzero(at_k)), int(np.count_nonzero(at_k1))
    if r == 1:
        v_lo, v, v_hi = s.size, v_k, v_k1
    else:
        v_lo, v, v_hi = v_k, v_k1, int(np.count_nonzero(at_k1[1:] & at_k1[:-1]))
    return v, v_lo - v, v_lo - 2 * v + v_hi


def streaming_overflow(balls: np.ndarray, r: int) -> int:
    """Number of balls whose urn already held >= r balls on arrival."""
    return overflow_stats(balls, r)[0]


def _check_by_counts(s: np.ndarray, r: int, stats: tuple[int, int, int]) -> None:
    """Raise AssertionError unless the count route on the sorted draw s gives
    the kernel's (V, L, M).

    The urn counts are the lengths of the runs of equal keys in s, which holds
    only if s is sorted, so that is checked first.  Over the full urns
    (count >= r), V = n - sum_m min(count_m, r) is sum (count_m - r).
    """
    head, tail = s[:-1], s[1:]
    if not (tail >= head).all():
        raise AssertionError("count route needs a sorted draw")
    starts = np.empty(s.size + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(tail, head, out=starts[1:-1])
    edges = np.flatnonzero(starts)
    counts = edges[1:] - edges[:-1]
    full = counts[counts >= r]
    by_counts = (int(full.sum()) - r * full.size, full.size,
                 int(np.count_nonzero(full == r)))
    if stats != by_counts:
        raise AssertionError(
            f"(V, L, M) mismatch: sort-and-shift={stats} count route={by_counts}")


def run_trial(dist: BoxDistribution, n: int, r: int, rng: np.random.Generator,
              check: bool = True) -> tuple[int, int, int]:
    """(V, L, M) of n balls drawn from dist, sorted in place; with check,
    confirmed by the count route."""
    n, r = _size("n", n), _size("capacity r", r)
    keys = dist.sample(rng, n)
    keys.sort()
    stats = _sorted_stats(keys, r)
    if check:
        _check_by_counts(keys, r, stats)
    return stats


def run_experiment(config: ExperimentConfig) -> dict:
    """Run config.reps independent trials; map each of V, L, M -> its summary."""
    chunk = -(-config.reps // config.threads)
    spans = [range(lo, min(lo + chunk, config.reps))
             for lo in range(0, config.reps, chunk)]

    def count_span(span):
        return Counter(run_trial(config.dist, config.n, config.r,
                                 trial_rng(config.seed, t), config.identity_checks)
                       for t in span)

    if len(spans) == 1:
        triples = count_span(spans[0])
    else:
        from concurrent.futures import ThreadPoolExecutor

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
