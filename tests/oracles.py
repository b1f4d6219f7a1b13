"""Independent routes to the overflow statistics, used by tests as oracles."""

import math

import numpy as np


def counts_from_sequence(balls):
    """Map urn index -> ball count for the urns that were hit."""
    urns, counts = np.unique(np.asarray(balls), return_counts=True)
    return {int(u): int(c) for u, c in zip(urns, counts)}


def binomial_tail_rational(k, p, r):
    """P(Bin(k, p) >= r) exactly for the float p = a/b, rounded once: the
    integer b^k less the lower tail's numerators, over b^k."""
    a, b = float(p).as_integer_ratio()
    lower = sum(math.comb(k, i) * a**i * (b - a)**(k - i) for i in range(r))
    return (b**k - lower) / b**k


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


def seedsequence_rng(seed, trial):
    """Trial i's stream built the direct way, one SeedSequence per trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


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


def _sum_tails_upto(p: float, n: int, r: int) -> float:
    """sum_{k=1}^{n} P(Bin(k-1, p) >= r), by an O(n*r) pmf recurrence."""
    q = 1.0 - p
    pmf = np.zeros(r)     # pmf of Bin(j, p) on 0..r-1, starting at j = 0
    pmf[0] = 1.0
    tail = 0.0            # P(Bin(j, p) >= r)
    total = 0.0
    for _ in range(n):    # j = 0 .. n-1, i.e. k = 1 .. n
        total += tail
        tail += p * pmf[r - 1]
        pmf[1:] = q * pmf[1:] + p * pmf[:-1]
        pmf[0] *= q
    return total


def loop_mean_overflow(probs, n, r):
    """E V_{n,r} = sum over (p, mult) of mult * p * sum_{k=1}^n P(Bin(k-1, p) >= r),
    one urn at a time."""
    return sum(mult * p * _sum_tails_upto(p, n, r) for p, mult in probs)


def exact_mean_rational(probs, n, r):
    """sum over (p, mult) of mult * E(Bin(n, p) - r)^+, exactly for the given
    floats p, rounded once at the end.

    Uses E(N - r)^+ = n p - r + sum_{i<r} (r - i) P(N = i).  A float p is
    a / 2^k, so each urn's term is an integer over 2^(k n); the terms are
    summed as integers over the largest such power of two.
    """
    terms = []
    for p, mult in probs:
        a, b = float(p).as_integer_ratio()
        c = b - a
        num = n * a * b ** (n - 1) - r * b ** n
        for i in range(r):
            num += (r - i) * math.comb(n, i) * a ** i * c ** (n - i)
        terms.append((int(mult) * num, (b ** n).bit_length() - 1))
    shift = max(e for _, e in terms)
    return sum(num << (shift - e) for num, e in terms) / (1 << shift)


def _compositions(n: int, s: int):
    """All count vectors (c_1..c_s) with sum n."""
    if s == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, s - 1):
            yield (head, *rest)


def loop_overflow_pmf(probs, n, r):
    """pmf of V over every count vector, one composition at a time, with
    multinomial weights for the urn probabilities `probs`."""
    logp = np.log(probs)
    lg = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    log_nfact = math.lgamma(n + 1)
    pmf = {}
    for comp in _compositions(n, len(probs)):
        c = np.array(comp)
        w = math.exp(log_nfact - lg[c].sum() + float(c @ logp))
        v = int(n - np.minimum(c, r).sum())
        pmf[v] = pmf.get(v, 0.0) + w
    return pmf
