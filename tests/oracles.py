"""Independent routes to the overflow statistics, used by tests as oracles."""

import numpy as np


def per_ball_overflow_stats(balls, r):
    """(V, L, M) by replaying the draw ball by ball: a ball overflows iff its
    urn already holds at least r balls when it arrives."""
    held = {}
    overflow = 0
    for urn in np.asarray(balls).tolist():
        if held.get(urn, 0) >= r:
            overflow += 1
        held[urn] = held.get(urn, 0) + 1
    full = sum(c >= r for c in held.values())
    exactly = sum(c == r for c in held.values())
    return overflow, full, exactly


def batch_overflows(dist, n, r, reps, rng):
    """Overflow of many trials at once, for small finite-support instances.

    Samples a (reps, n) matrix from one stream and counts each trial's urns
    with one bincount; convenient for oracle comparisons where per-trial
    stream derivation is not needed.
    """
    s = dist.support_size
    balls = dist.sample(rng, reps * n)
    flat = balls + s * np.repeat(np.arange(reps), n)
    counts = np.bincount(flat, minlength=reps * s).reshape(reps, s)
    return (np.maximum(counts - r, 0)).sum(axis=1)
