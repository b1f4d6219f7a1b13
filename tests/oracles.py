"""Independent routes to the overflow statistics, used by tests as oracles."""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def count_route_stats(balls, r):
    """(V, L, M) from the final urn counts c: V = sum (c - r)^+, L = #(c >= r)
    and M = #(c == r)."""
    _, c = np.unique(np.asarray(balls), return_counts=True)
    return (int(np.maximum(c - r, 0).sum()), int(np.count_nonzero(c >= r)),
            int(np.count_nonzero(c == r)))


def support_masses(dist):
    """Urn masses of dist; for a geometric law, the leading masses p q^j until
    the remaining tail mass q^j drops below 1e-15."""
    if dist.finite_support:
        return dist.support_probs()
    p = dist.success_prob
    return p * (1.0 - p) ** np.arange(math.ceil(math.log(1e-15) / math.log1p(-p)))


def binomial_tail_rational(k, p, r):
    """P(Bin(k, p) >= r) exactly for the float p = a/b, rounded once: the
    integer b^k less the lower tail's numerators, over b^k."""
    a, b = float(p).as_integer_ratio()
    lower = sum(math.comb(k, i) * a**i * (b - a)**(k - i) for i in range(r))
    return (b**k - lower) / b**k


def tail_bound(k, p, r):
    """The binomial tail bound (k*p)^r / r! on P(Bin(k, p) >= r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if k == 0 or p == 0.0:
        return 0.0
    return math.exp(r * math.log(k * p) - math.lgamma(r + 1))


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


def sequence_overflow_pmf(probs, n, r):
    """pmf of V over every ordered sequence of n balls, each replayed ball by
    ball and weighted by the product of its urn probabilities `probs`."""
    pmf = {}
    for seq in itertools.product(range(len(probs)), repeat=n):
        v = per_ball_overflow_stats(seq, r)[0]
        pmf[v] = pmf.get(v, 0.0) + math.prod(probs[b] for b in seq)
    return pmf


def sequence_nod_table(probs, k, l, m1, m2):
    """table[x1, x2] = P(C1 >= x1, C2 >= x2) over every ordered sequence of
    l-1 balls, weighted by the product of its urn probabilities `probs`: C1
    counts m1 among the first k-1 balls and C2 counts m2 among all l-1."""
    mass = np.zeros((l + 1, l + 1))
    for seq in itertools.product(range(len(probs)), repeat=l - 1):   # one empty seq at l = 1
        mass[seq[: k - 1].count(m1), seq.count(m2)] += math.prod(probs[b] for b in seq)
    return np.flip(np.cumsum(np.cumsum(np.flip(mass), axis=0), axis=1))


def occupancy_pmf(m, n):
    """P(K = k) for the number K of occupied urns when n balls fall uniformly
    into m urns, C(m, k) k! S(n, k) / m^n with S the Stirling numbers of the
    second kind, in exact integers and rounded once."""
    stirling = [1] + [0] * n   # S(j, k), k = 0..n, from j = 0 up to n
    for _ in range(n):
        for k in range(n, 0, -1):
            stirling[k] = k * stirling[k] + stirling[k - 1]
        stirling[0] = 0
    return {k: math.comb(m, k) * math.factorial(k) * stirling[k] / m ** n
            for k in range(1, min(m, n) + 1)}


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


def poisson_table_by_term(terms, tol):
    """(terms 0..K, their summed mass), one term at a time from k = 0, until
    the mass reaches 1 - tol or the terms run out."""
    pmf, cum = [], 0.0
    for term in terms.tolist():
        if cum >= 1.0 - tol:
            break
        pmf.append(term)
        cum += term
    return np.array(pmf), cum


def pooled_chi_square(observed, expected):
    """(Pearson chi-square, degrees of freedom) with cells pooled right to left
    over the full arrays until each expected count is >= 5; a remainder with
    expected mass joins the last cell."""
    cells_exp, cells_obs = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected[::-1], observed[::-1]):
        acc_e += e
        acc_o += o
        if acc_e >= 5.0:
            cells_exp.append(acc_e)
            cells_obs.append(acc_o)
            acc_e = acc_o = 0.0
    if cells_exp and acc_e > 0:
        cells_exp[-1] += acc_e
        cells_obs[-1] += acc_o
    e, o = np.array(cells_exp), np.array(cells_obs)
    return float(((o - e) ** 2 / e).sum()), len(cells_exp) - 1


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
# B_2, B_4, ..., B_16
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510))


def _decimal_log_factorial(k):
    """log k! in the current decimal context: exact below 30, else Stirling's
    series to the 1/k^15 term, whose remainder is below 1e-26 relative."""
    if k < 30:
        return Decimal(math.factorial(k)).ln()
    k = Decimal(k)
    series = sum(Decimal(b.numerator) / Decimal(b.denominator) / ((2 * j) * (2 * j - 1))
                 / k ** (2 * j - 1) for j, b in enumerate(_BERNOULLI, start=1))
    return (k + Decimal("0.5")) * k.ln() - k + (2 * _PI).ln() / 2 + series


def decimal_stirlerr(k):
    """log k! - log(sqrt(2 pi k) (k/e)^k) for k >= 1, in 60-digit decimal
    arithmetic, rounded once."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(_decimal_log_factorial(k) - (k + Decimal("0.5")) * Decimal(k).ln() + k
                     - (2 * _PI).ln() / 2)


def decimal_pmf(lo, hi, mu=None, n=None, p=None):
    """[P(X = k) for k = lo..hi] as floats, X = Pois(mu) or Bin(n, p) for the
    exact values of the floats mu and p, in 60-digit decimal arithmetic: the
    term at lo from log-factorials, then the ratios P(k+1)/P(k) = mu/(k+1) or
    (n-k)/(k+1) p/q, each rounded at the 60th digit."""
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emin = -10**9
        if n is None:
            m = Decimal(mu)
            log_term = lo * m.ln() - m - _decimal_log_factorial(lo)
        else:
            m, q = Decimal(p), 1 - Decimal(p)
            log_term = (_decimal_log_factorial(n) - _decimal_log_factorial(lo)
                        - _decimal_log_factorial(n - lo) + lo * m.ln() + (n - lo) * q.ln())
        term = log_term.exp()
        terms = []
        for k in range(lo, hi + 1):
            terms.append(float(term))
            term *= m / (k + 1) if n is None else (n - k) * m / ((k + 1) * q)
        return terms
