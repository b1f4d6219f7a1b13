"""One allocation trial: n balls into capacity-r urns, overflow and full-urn stats.

One sort-and-shift kernel gives all three: on the sorted draw s, a ball has at
least k earlier urn-mates exactly when s[i] == s[i-k], so the overflow V_k at
capacity k counts those positions (V_0 = n), and L_r = V_{r-1} - V_r and
M_r = V_{r-1} - 2 V_r + V_{r+1}.  The keys are compared once, at
k = max(r-1, 1).  On a sorted draw s[i] == s[i+k+1] holds exactly when both
s[i] == s[i+k] and s[i+1] == s[i+k+1] do, since k >= 1 puts s[i+1] between
s[i] and s[i+k]; so the AND of the match flags with themselves shifted by one
marks the matches at k+1, and that AND taken once more the matches at k+2.
The count route (n - sum_m min(count_m, r), #(count >= r), #(count == r) on
the final counts) is its independent check; it reads the counts as the
lengths of the runs of equal keys in the sorted draw, after checking that the
draw is sorted, so it needs no second sort.
Only equality of urn indices matters, so the kernel sorts the keys it is
given; the samplers already draw them as int32 whenever every index fits.
The kernel has two halves: the sort, and the count on sorted keys
(``_sorted_stats``).  ``overflow_stats`` sorts a copy, and
``streaming_overflow`` is its V; ``run_trial`` is the one trial pipeline, the
Monte Carlo loop's too: it owns its fresh draw, so it sorts the keys in place
before counting them.
"""

from __future__ import annotations

import numpy as np

from .distributions import BoxDistribution, _size

__all__ = [
    "run_trial",
    "overflow_stats",
    "streaming_overflow",
]


def overflow_stats(balls: np.ndarray, r: int) -> tuple[int, int, int]:
    """(V, L, M) at capacity r from one sort of the draw.

    V = V_r, L = V_{r-1} - V_r and M = V_{r-1} - 2 V_r + V_{r+1}.
    """
    r = _size("capacity r", r)
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
