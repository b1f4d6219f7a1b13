"""Box-selection distributions: the law by which each ball picks an urn.

Three kinds are supported: uniform over a finite set of urns, geometric on
{0, 1, 2, ...}, and an explicit weight vector.  All expose the largest
single-urn probability (``p_star``), the power moments sum(p_m^(r+1)) that
drive the limit regimes, and vectorized per-ball sampling.

Urn indices are 0-based everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Uniform",
    "Geometric",
    "Custom",
    "BoxDistribution",
    "p_star",
    "power_moment",
    "sample_box",
    "parse_dist_spec",
]

# Custom weights must sum to 1 within this tolerance after normalization.
NORMALIZATION_TOL = 1e-12


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
        return rng.integers(0, self.urn_count, size=size)

    def support_probs(self, tail_tol: float = 1e-15) -> np.ndarray:
        return np.full(self.urn_count, 1.0 / self.urn_count)

    def distinct_probs(self, tail_tol: float = 1e-15):
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
        # exact inverse-CDF: CDF(j) = 1 - (1-p)^(j+1), never truncated, in place on u
        u = rng.random(size)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= math.log1p(-self.success_prob)
        np.floor(u, out=u)
        return u.astype(np.int64)

    def support_probs(self, tail_tol: float = 1e-15) -> np.ndarray:
        """Leading masses until the remaining tail mass drops below tail_tol."""
        p = self.success_prob
        # tail mass after j terms is (1-p)^j
        j_max = max(1, math.ceil(math.log(tail_tol) / math.log1p(-p)))
        return p * (1.0 - p) ** np.arange(j_max)

    def distinct_probs(self, tail_tol: float = 1e-15):
        return [(float(pm), 1) for pm in self.support_probs(tail_tol)]


class Custom:
    """Explicit weights over urns 0..len(weights)-1, normalized on construction."""

    __slots__ = ("probs",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must all be finite and strictly positive")
        total = float(w.sum())
        if not (0.0 < total < math.inf):
            raise ValueError(f"weight sum must be finite and positive, got {total}")
        probs = w / total
        if abs(probs.sum() - 1.0) > NORMALIZATION_TOL:
            raise ValueError("normalized weights failed to sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

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
        # cumulative search on a unit uniform
        cdf = np.cumsum(self.probs)
        cdf[-1] = 1.0
        return np.searchsorted(cdf, rng.random(size), side="right")

    def support_probs(self, tail_tol: float = 1e-15) -> np.ndarray:
        return self.probs

    def distinct_probs(self, tail_tol: float = 1e-15):
        vals, counts = np.unique(self.probs, return_counts=True)
        return [(float(v), int(c)) for v, c in zip(vals, counts)]


BoxDistribution = Uniform | Geometric | Custom


def _check_moment_order(r):
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"moment order r must be a positive integer, got {r!r}")


def p_star(dist: BoxDistribution) -> float:
    """Largest single-urn probability, sup_m p_m."""
    return dist.p_star()


def power_moment(dist: BoxDistribution, r: int) -> float:
    """sum_m p_m^(r+1), the r-th power moment of the selected urn's mass."""
    return dist.power_moment(r)


def sample_box(dist: BoxDistribution, rng: np.random.Generator, size: int | None = None):
    """Draw urn indices according to dist; scalar when size is None."""
    if size is None:
        return int(dist.sample(rng, 1)[0])
    return dist.sample(rng, size)


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
