"""One allocation trial: n balls into capacity-r urns, overflow and full-urn stats.

One sort-and-shift kernel gives all three: on the sorted draw s, a ball has at
least k earlier urn-mates exactly when s[i] == s[i-k], so the overflow V_k at
capacity k counts those positions (V_0 = n), and L_r = V_{r-1} - V_r and
M_r = V_{r-1} - 2 V_r + V_{r+1}.  The count route (n - sum_m min(count_m, r),
#(count >= r), #(count == r) on the final counts) is its independent check.
Only equality of urn indices matters, so the sort runs on 32-bit keys whenever
every index fits in int32, and on the draw's own int64 keys otherwise.  The
kernel has two halves: the sort, and the count on sorted keys
(``_sorted_stats``).  ``overflow_stats`` sorts a copy; the Monte Carlo trial
loop owns its fresh draw, so it sorts the keys in place and counts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import BoxDistribution

__all__ = [
    "AllocationOutcome",
    "run_trial",
    "overflow_stats",
    "overflow_from_counts",
    "full_counts",
    "streaming_overflow",
    "counts_from_sequence",
]


@dataclass(frozen=True)
class AllocationOutcome:
    """Final state of one trial; counts holds only urns that received a ball."""

    counts: dict
    n: int
    r: int
    overflow: int
    full_urns: int
    exactly_full: int
    sequence: np.ndarray | None = None  # retained only on request (debugging)


def counts_from_sequence(balls: np.ndarray) -> dict:
    """Map urn index -> ball count for the urns that were hit."""
    urns, counts = np.unique(np.asarray(balls), return_counts=True)
    return {int(u): int(c) for u, c in zip(urns, counts)}


_INT32 = np.iinfo(np.int32)


def _sort_keys(balls: np.ndarray) -> np.ndarray:
    """An int64 draw as an int32 copy when every urn index fits, else unchanged.

    The cast keeps every value, so the sorted order and every shifted
    equality are the same; int32 keys sort about twice as fast as int64.
    """
    balls = np.asarray(balls)
    if (balls.dtype == np.int64 and balls.size
            and balls.min() >= _INT32.min and balls.max() <= _INT32.max):
        return balls.astype(np.int32)
    return balls


def _shifted_matches(s: np.ndarray, k: int) -> int:
    """V_k of a sorted draw s: positions i with s[i] == s[i-k], and V_0 = n."""
    if k == 0:
        return s.size
    return int(np.count_nonzero(s[k:] == s[:-k]))


def overflow_stats(balls: np.ndarray, r: int) -> tuple[int, int, int]:
    """(V, L, M) at capacity r from one sort of the draw.

    V = V_r, L = V_{r-1} - V_r and M = V_{r-1} - 2 V_r + V_{r+1}.
    """
    if r < 1:
        raise ValueError("capacity r must be >= 1")
    return _sorted_stats(np.sort(_sort_keys(balls)), r)


def _sorted_stats(s: np.ndarray, r: int) -> tuple[int, int, int]:
    """(V, L, M) at capacity r >= 1 of an already sorted draw s."""
    v_lo, v, v_hi = (_shifted_matches(s, k) for k in (r - 1, r, r + 1))
    return v, v_lo - v, v_lo - 2 * v + v_hi


def streaming_overflow(balls: np.ndarray, r: int) -> int:
    """Number of balls whose urn already held >= r balls on arrival."""
    if r < 1:
        raise ValueError("capacity r must be >= 1")
    return _shifted_matches(np.sort(_sort_keys(balls)), r)


def overflow_from_counts(counts, n: int, r: int) -> int:
    """n - sum_m min(count_m, r); rejects count maps that do not sum to n."""
    if r < 1:
        raise ValueError("capacity r must be >= 1")
    values = np.asarray(list(counts.values()) if isinstance(counts, dict) else counts,
                        dtype=np.int64)
    total = int(values.sum())
    if total != n:
        raise ValueError(f"counts sum to {total}, expected n={n}")
    return int(n - np.minimum(values, r).sum())


def full_counts(counts, r: int) -> tuple[int, int]:
    """(L, M): urns with count >= r and urns with count == r."""
    if r < 1:
        raise ValueError("capacity r must be >= 1")
    values = np.asarray(list(counts.values()) if isinstance(counts, dict) else counts,
                        dtype=np.int64)
    return int(np.count_nonzero(values >= r)), int(np.count_nonzero(values == r))


def run_trial(dist: BoxDistribution, n: int, r: int, rng: np.random.Generator,
              keep_sequence: bool = False) -> AllocationOutcome:
    """Throw n balls drawn from dist and fill every outcome field.

    The sort-and-shift kernel and the count route are both evaluated; a
    mismatch would indicate a bug and raises immediately.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 1:
        raise ValueError("capacity r must be >= 1")
    balls = dist.sample(rng, n)
    counts = counts_from_sequence(balls)
    kernel = overflow_stats(balls, r)
    by_counts = (overflow_from_counts(counts, n, r), *full_counts(counts, r))
    if kernel != by_counts:
        raise AssertionError(
            f"(V, L, M) mismatch: sort-and-shift={kernel} count-based={by_counts}")
    v, full, exactly = kernel
    return AllocationOutcome(
        counts=counts, n=n, r=r, overflow=v,
        full_urns=full, exactly_full=exactly,
        sequence=balls if keep_sequence else None,
    )
