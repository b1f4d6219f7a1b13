"""Box-selection distributions: the law by which each ball picks an urn.

Three kinds are supported: uniform over a finite set of urns, geometric on
{0, 1, 2, ...}, and an explicit weight vector.  All expose the largest
single-urn probability (``p_star()``), the power moments sum(p_m^(r+1))
(``power_moment(r)``) that drive the limit regimes, and per-ball sampling.
Only the finite laws list their urn masses (``support_size``,
``support_probs``, ``distinct_probs``).

Urn indices are 0-based everywhere.  Every sampler returns a fresh array that
the caller owns (the trial loop sorts it in place), as int32 whenever the
largest index the sampler can return fits, else int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Uniform",
    "Geometric",
    "Custom",
    "BoxDistribution",
    "parse_dist_spec",
]

# Generator.random never returns more than this, so it bounds every
# inverse-CDF index
_U_MAX = 1.0 - 2.0**-53


@dataclass(frozen=True)
class Uniform:
    """Equal probability 1/m on urns 0..m-1."""

    urn_count: int

    def __post_init__(self):
        if not isinstance(self.urn_count, (int, np.integer)) or self.urn_count < 1:
            raise ValueError(f"urn_count must be a positive integer, got {self.urn_count!r}")

    @property
    def finite_support(self):
        return True

    @property
    def support_size(self):
        return self.urn_count

    def p_star(self) -> float:
        return 1.0 / self.urn_count

    def power_moment(self, r: int) -> float:
        # sum over m urns of (1/m)^(r+1) = m^(-r)
        _check_moment_order(r)
        return float(self.urn_count) ** (-r)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size urn indices, a fresh array the caller owns."""
        # int32 and int64 draws below 2**32 share numpy's 32-bit sampler, so
        # int32 gives the same values and the kernel sorts them without a cast
        dtype = np.int32 if self.urn_count <= 2**31 else np.int64
        return rng.integers(0, self.urn_count, size=size, dtype=dtype)

    def support_probs(self) -> np.ndarray:
        # a read-only zero-stride view: one float, whatever m
        return np.broadcast_to(1.0 / self.urn_count, (self.urn_count,))

    def distinct_probs(self):
        """(probability, multiplicity) pairs; collapses identical urns."""
        return [(1.0 / self.urn_count, self.urn_count)]


@dataclass(frozen=True)
class Geometric:
    """p_j = p * (1-p)^j on urns j = 0, 1, 2, ... (infinite support)."""

    success_prob: float

    def __post_init__(self):
        p = self.success_prob
        if not (0.0 < p < 1.0) or not math.isfinite(p):
            raise ValueError(f"success_prob must lie in (0,1), got {p!r}")

    @property
    def finite_support(self):
        return False

    def p_star(self) -> float:
        # mass is decreasing in j, so the supremum sits at j = 0
        return self.success_prob

    def power_moment(self, r: int) -> float:
        # sum_j (p q^j)^(r+1) = p^(r+1) / (1 - q^(r+1)), summed geometric series
        _check_moment_order(r)
        p = self.success_prob
        denom = -math.expm1((r + 1) * math.log1p(-p))
        return p ** (r + 1) / denom

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size urn indices, a fresh array the caller owns."""
        # exact inverse-CDF: CDF(j) = 1 - (1-p)^(j+1), never truncated, in place on u
        log_q = math.log1p(-self.success_prob)
        u = rng.random(size)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= log_q
        # the quotients are >= +0, so the cast's truncation is their floor; to
        # int32 when the largest reachable index (from u = _U_MAX) fits with
        # one index to spare for libm rounding; the switch sits near p = 1.7e-8
        top = math.floor(math.log1p(-_U_MAX) / log_q)
        return u.astype(np.int32 if top < 2**31 - 1 else np.int64)


class Custom:
    """Explicit weights over urns 0..len(weights)-1, normalized on construction."""

    __slots__ = ("probs", "cdf", "_distinct")

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must all be finite and strictly positive")
        with np.errstate(over="ignore"):     # an infinite sum is refused below
            total = float(w.sum())
        if not (0.0 < total < math.inf):
            raise ValueError(f"weight sum must be finite and positive, got {total}")
        probs = w / total
        probs.setflags(write=False)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        cdf.setflags(write=False)
        vals, counts = np.unique(probs, return_counts=True)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "_distinct",
                           tuple((float(v), int(c)) for v, c in zip(vals, counts)))

    def __setattr__(self, name, value):
        raise AttributeError("Custom distributions are immutable")

    def __repr__(self):
        return f"Custom({self.probs.tolist()!r})"

    def __eq__(self, other):
        return isinstance(other, Custom) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())

    @property
    def finite_support(self):
        return True

    @property
    def support_size(self):
        return self.probs.size

    def p_star(self) -> float:
        return float(self.probs.max())

    def power_moment(self, r: int) -> float:
        _check_moment_order(r)
        return float(np.sum(self.probs ** (r + 1)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size urn indices, a fresh array the caller owns."""
        # cumulative search on a unit uniform; the largest index is
        # support_size - 1, so one cast to int32 whenever that fits
        idx = np.searchsorted(self.cdf, rng.random(size), side="right")
        return idx.astype(np.int32 if self.probs.size <= 2**31 else np.int64)

    def support_probs(self) -> np.ndarray:
        return self.probs

    def distinct_probs(self):
        """(probability, multiplicity) pairs, found once at construction."""
        return self._distinct


BoxDistribution = Uniform | Geometric | Custom


def _check_moment_order(r):
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"moment order r must be a positive integer, got {r!r}")


def parse_dist_spec(spec: str) -> BoxDistribution:
    """Parse ``uniform:m=<int>``, ``geometric:p=<real>`` or ``custom:@<path>``.

    The custom file holds one weight per line, UTF-8, with ``#`` comments.
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed distribution spec {spec!r}")
    if kind == "uniform":
        key, sep, val = arg.partition("=")
        if key != "m" or not sep:
            raise ValueError(f"uniform spec must look like uniform:m=<int>, got {spec!r}")
        return Uniform(int(val))
    if kind == "geometric":
        key, sep, val = arg.partition("=")
        if key != "p" or not sep:
            raise ValueError(f"geometric spec must look like geometric:p=<real>, got {spec!r}")
        return Geometric(float(val))
    if kind == "custom":
        if not arg.startswith("@"):
            raise ValueError(f"custom spec must look like custom:@<path>, got {spec!r}")
        weights = []
        with open(arg[1:], encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    weights.append(float(line))
        return Custom(weights)
    raise ValueError(f"unknown distribution kind {kind!r}")
