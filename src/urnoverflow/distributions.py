"""Box-selection distributions: the law by which each ball picks an urn.

Three kinds are supported: uniform over a finite set of urns, geometric on
{0, 1, 2, ...}, and an explicit weight vector.  All expose the largest
single-urn probability (``p_star()``), the power moments sum(p_m^(r+1))
(``power_moment(r)``) that drive the limit regimes, and per-ball sampling.
Only the finite laws list their urn masses (``support_size``,
``support_probs``, ``distinct_probs``).

Urn indices are 0-based everywhere.  Every sampler returns a fresh array that
the caller owns (the trial loop sorts it in place), as int32 whenever the
largest index the sampler can return fits.  Beyond that a finite law gives
int64, and a geometric law gives its indices as integer-valued float64.
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


def _size(name: str, value, low: int | None = 1) -> int:
    """The count value (n, r, m, ...) as a Python int, so that no size arithmetic
    wraps in a narrow numpy dtype; ValueError unless it is an integer, and not
    a bool, of at least low when low is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Uniform:
    """Equal probability 1/m on urns 0..m-1."""

    urn_count: int
    finite_support = True

    def __post_init__(self):
        m = _size("urn_count", self.urn_count)
        # below 2**1000, 1/m and the power moments stay floats (as n and r in
        # asymptotics.regime_report)
        if m.bit_length() > 1000:
            raise ValueError(f"urn_count must be < 2**1000, got {m}")
        object.__setattr__(self, "urn_count", m)

    @property
    def support_size(self):
        return self.urn_count

    def p_star(self) -> float:
        return 1.0 / self.urn_count

    def power_moment(self, r: int) -> float:
        # sum over m urns of (1/m)^(r+1) = m^(-r)
        return float(self.urn_count) ** -_size("moment order r", r)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size urn indices, a fresh array the caller owns: the keys of
        ``rng.integers(0, m, size)``, with rng left in the state it leaves."""
        # up to 2**21 urns every product x * m a 32-bit draw forms is exact in float64
        bits = rng.bit_generator
        if (type(bits) is np.random.PCG64 and 1 < self.urn_count <= 2**21
                and size >= 1 and not bits.state["has_uint32"]):
            return _pcg64_keys(bits, self.urn_count, size)
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
    finite_support = False

    def __post_init__(self):
        p = self.success_prob
        if not (0.0 < p < 1.0) or not math.isfinite(p):
            raise ValueError(f"success_prob must lie in (0,1), got {p!r}")

    def p_star(self) -> float:
        # mass is decreasing in j, so the supremum sits at j = 0
        return self.success_prob

    def power_moment(self, r: int) -> float:
        # sum_j (p q^j)^(r+1) = p^(r+1) / (1 - q^(r+1)), summed geometric series
        r = _size("moment order r", r)
        p = self.success_prob
        denom = -math.expm1((r + 1) * math.log1p(-p))
        return p ** (r + 1) / denom

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size urn indices, a fresh array the caller owns."""
        # exact inverse-CDF: CDF(j) = 1 - (1-p)^(j+1), never truncated, in place on u
        log_q = math.log1p(-self.success_prob)
        # the largest reachable index, from u = _U_MAX; within a factor 2 of
        # the float range's end a quotient could round to infinity
        top = math.log1p(-_U_MAX) / log_q
        if top >= 2.0**1023:
            raise ValueError(f"geometric urn indices for p = {self.success_prob!r} "
                             "exceed the float range")
        u = rng.random(size)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= log_q
        if math.floor(top) < 2**31 - 1:
            # the largest index fits with one to spare for libm rounding (p above
            # about 1.7e-8); the cast truncates the quotients, all >= +0, to floors
            return u.astype(np.int32)
        # float64 floors compare equal exactly when integer floors would
        return np.floor(u, out=u)


class Custom:
    """Explicit weights over urns 0..len(weights)-1, normalized on construction."""

    __slots__ = ("probs", "cdf", "_distinct")
    finite_support = True

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
    def support_size(self):
        return self.probs.size

    def p_star(self) -> float:
        return float(self.probs.max())

    def power_moment(self, r: int) -> float:
        return float(np.sum(self.probs ** (_size("moment order r", r) + 1)))

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


def _pcg64_halves(bits: np.random.PCG64, words: int) -> np.ndarray:
    # each raw word's low half, then its high half: numpy's next_uint32 order
    return bits.random_raw(words).astype("<u8", copy=False).view("<u4")


def _pcg64_keys(bits: np.random.PCG64, m: int, size: int) -> np.ndarray:
    """numpy's bounded 32-bit draw (Lemire's multiply-and-reject) of size keys
    below m, over the same PCG64 words in one vector pass.

    A 32-bit x is rejected when (x * m) mod 2**32 < 2**32 mod m, and each
    redraw takes the next half word, so the keys are the accepted halves in
    stream order, each floor(x * m / 2**32).  The bit generator must hold no
    buffered half word; an unused high half is left buffered as numpy does.
    """
    m32 = np.uint32(m)
    threshold = 2**32 % m
    halves = _pcg64_halves(bits, (size + 1) // 2)
    x, spare = halves[:size], halves[size:]
    if (x * m32).min() < threshold:
        # rare: top up with exactly the halves still owed, never more
        kept = [x[x * m32 >= threshold]]
        owed = size - kept[0].size
        while owed:
            more = np.concatenate([spare, _pcg64_halves(bits, (owed - spare.size + 1) // 2)])
            x, spare = more[:owed], more[owed:]
            kept.append(x[x * m32 >= threshold])
            owed -= kept[-1].size
        x = np.concatenate(kept)
    if spare.size:
        state = bits.state
        state["has_uint32"], state["uinteger"] = 1, int(spare[0])
        bits.state = state
    # x * m < 2**53 and m * 2**-32 is exact, so the float product is exact
    # and the cast's truncation is floor(x * m / 2**32)
    return (x * (m * 2.0**-32)).astype(np.int32)


def parse_dist_spec(spec: str) -> BoxDistribution:
    """Parse ``uniform:m=<int>``, ``geometric:p=<real>`` or ``custom:@<path>``.

    The custom file holds one weight per line, UTF-8 with or without a
    byte-order mark, with ``#`` comments.
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
        with open(arg[1:], encoding="utf-8-sig") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    weights.append(float(line))
        return Custom(weights)
    raise ValueError(f"unknown distribution kind {kind!r}")
