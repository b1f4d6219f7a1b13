"""Exact computations: binomial tails, the overflow mean by two independent
routes (sums of non-negative binomial terms per urn, and the retention
identity), the exact law of the overflow by a Poissonized urn-by-urn
recurrence, and the exact joint tails of two urn counts that check the
negative-dependence inequality, by a ball-by-ball recurrence.

Work is capped by the fixed module budgets MEAN_BUDGET and ORACLE_BUDGET;
exceeding one raises BudgetExceededError rather than silently approximating.

Every Poisson and binomial term comes from the pmf rows of _pmf_rows: a ratio
product wherever the row's first term is at least e^-64, Loader's saddle-point
terms elsewhere, so no exact route loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _pmf_terms
from .distributions import BoxDistribution, _size

__all__ = [
    "BudgetExceededError",
    "binomial_tail",
    "exact_mean_overflow",
    "exact_mean_via_counts",
    "ExactDistribution",
    "exact_distribution",
    "nod_joint_table",
    "nod_check",
]

MEAN_BUDGET = 10**9               # tail evaluations allowed in the mean formulas
ORACLE_BUDGET = 10**7             # law / nod recurrence cells to fill
STEP_CELLS = 1000                 # measured fixed cost of one urn's law step, in cells
GEOMETRIC_CUTOFF = 1e-14          # relative contribution below which geometric urns stop
GRID_CELLS = 1 << 20              # cells per block of an exact route's arrays
RATIO_ROW_MAX = 64.0              # -log P(X=0) from which a pmf row is saddle-point terms


class BudgetExceededError(RuntimeError):
    """An exact computation would exceed MEAN_BUDGET or ORACLE_BUDGET."""


# ---------------------------------------------------------------------------
# binomial pmf rows and tails
# ---------------------------------------------------------------------------

def _tail_span(r: int) -> int:
    """Terms of Bin(n, p) past k = r + _tail_span(r) add less than e^-40 of
    the sum from r up, wherever n p < r: each term is at most r/(r+j+1) times
    the one before it, j terms past r."""
    return math.isqrt(81 * r - 1) + 13     # ceil(9 sqrt(r)) + 12, for any int r >= 1


def _pmf_rows(top: int, *, mu=None, n=None, p=None) -> np.ndarray:
    """rows[u, k] = P(X_u = k), k = 0..top, for X_u = Pois(mu[u]) with mu >= 0,
    or X_u = Bin(n, p[u]) with 0 <= p <= 1 and top <= n, over a 1-d array.

    A row whose first term P(X=0), e^-mu or q^n, is at least e^-RATIO_ROW_MAX
    is that term times the cumulative product of P(X=i)/P(X=i-1), mu/i or
    (n+1-i)/i p/q, in place in one array.  Its rounding grows with -log P(X=0)
    (q^n underflows past 745), but below 64 it stays within about 2e-14 of
    60-digit values, as close as Loader's saddle-point terms,
    asymptotics._pmf_terms, which give every other row, p = 1 among them."""
    # -log P(X=0) >= RATIO_ROW_MAX, for Bin(n, p) as a bound on p that p = 1 always meets
    far = mu >= RATIO_ROW_MAX if n is None else p >= -math.expm1(-RATIO_ROW_MAX / max(n, 1))
    x = np.where(far, 0.0, mu if n is None else p)    # a far row as a point mass, for now
    i = np.arange(1, top + 1)
    rows = np.empty((x.size, top + 1))
    if n is None:
        np.exp(-x, out=rows[:, 0])
        np.divide.outer(x, i, out=rows[:, 1:])
    else:
        np.exp(n * np.log1p(-x), out=rows[:, 0])
        np.multiply.outer(x / (1.0 - x), (n + 1 - i) / i, out=rows[:, 1:])
    rows.cumprod(axis=1, out=rows)
    if far.any():
        kernel = {"mu": mu[far, None]} if n is None else {"n": n, "p": p[far, None]}
        rows[far] = _pmf_terms(np.arange(top + 1), **kernel)
    return rows


def _tail_sum(n: int, p: np.ndarray, r: int, g0: float, g1: float) -> np.ndarray:
    """E[g(N) 1{N >= r}] per urn, N = Bin(n, p) and g(k) = g0 + g1 k, from one
    pmf row: the terms from r to r + _tail_span(r) where n p < r, else g0 + g1 n p
    less the terms below r.  Neither cancels for the overflow, g(k) = k - r <= 0
    below r, nor for g = 1, whose tail is at least about 1/2 where n p >= r."""
    top = min(n, r + _tail_span(r))
    g = g0 + g1 * np.arange(top + 1)
    rows = _pmf_rows(top, n=n, p=p)
    return np.where(n * p < r, rows[:, r:] @ g[r:], g0 + g1 * n * p - rows[:, :r] @ g[:r])


def binomial_tail(k: int, p: float, r: int) -> float:
    """P(Bin(k, p) >= r), the g = 1 case of _tail_sum."""
    k, r = _size("k", k, 0), _size("r", r, None)
    if k >= 2**63 - 1:      # _pmf_rows forms k + 1 - i in int64
        raise ValueError(f"k must be < 2**63 - 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    if r <= 0:
        return 1.0
    if r > k:
        return 0.0
    return float(_tail_sum(k, np.array([p]), r, 1.0, 0.0)[0])


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
    Geometric urn j's bound n (n p_j)^r / r! falls by rho = q^r per
    urn, so the first urn below GEOMETRIC_CUTOFF times the bounds before it is
    the least j >= 1 with rho^j < CUT/(1 - rho + CUT).  n and r are the
    ints the mean routes took through _size."""
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
    # by log1p: log(CUT) - log(CUT + 1 - rho) rounds to 0 once 1 - rho < ~1e-28
    log_tau = -math.log1p(-math.expm1(log_rho) / GEOMETRIC_CUTOFF)
    urns = math.floor(log_tau / log_rho) + 1
    if not (urns + 1) * n <= MEAN_BUDGET:
        raise BudgetExceededError(
            f"geometric truncation exceeded mean budget {MEAN_BUDGET}")
    blocks = (np.arange(lo, min(lo + size, urns)) for lo in range(0, urns, size))
    # p q^j as p e^(j log q): one rounding of log q, not one of q per power
    return ((p * np.exp(j * math.log1p(-p)), np.ones(j.size)) for j in blocks)


def exact_mean_overflow(dist: BoxDistribution, n: int, r: int) -> float:
    """E V_{n,r} = sum_m E(N_m - r)^+ with N_m = Bin(n, p_m), the g(k) = k - r
    case of _tail_sum over the urns in blocks of at most GRID_CELLS row cells;
    an urn with p = 1 gives n - r through its row 0, ..., 0, 1."""
    n, r = _size("n", n), _size("r", r)
    blocks = _urns(dist, n, r, max(1, GRID_CELLS // (min(n, r + _tail_span(r)) + 1)))
    return sum((float(_tail_sum(n, p, r, -r, 1) @ mult) for p, mult in blocks), 0.0)


def exact_mean_via_counts(dist: BoxDistribution, n: int, r: int) -> float:
    """E V_{n,r} = sum_m mult E(Bin(n, p_m) - r)^+, the per-urn retention view.

    With N = Bin(n, p), an urn gives n p - sum_{i<r} i P(N=i) - r P(N >= r)
    from the (urns x r) pmf rows of _pmf_rows; 1 - q^n by expm1 keeps small
    tails precise.  Subtracting terms of size n p from a mean of size
    (n p)^(r+1) leaves a relative floor where n p is small: 2.3e-7 against the
    exact rational on Uniform(1000), n = 60, r = 5, and 6.1e-5 at n = 17."""
    n, r = _size("n", n), _size("r", r)
    total = 0.0
    for p, mult in _urns(dist, n, r, max(1, GRID_CELLS // r)):
        pmf = _pmf_rows(r - 1, n=n, p=p)
        with np.errstate(divide="ignore"):      # log q = -inf where p = 1: q^n = 0
            tail = -np.expm1(n * np.log1p(-p)) - pmf[:, 1:].sum(axis=1)
        total += float((n * p - pmf @ np.arange(r) - r * tail) @ mult)
    return total


# ---------------------------------------------------------------------------
# exact law of the overflow, by a Poissonized urn-by-urn recurrence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of V over s urns; its pmf runs from n - min(n, s r) to n - min(n, r)."""

    pmf: dict
    n: int
    r: int
    mean: float
    variance: float


def exact_distribution(dist: BoxDistribution, n: int, r: int) -> ExactDistribution:
    """Exact pmf of V = n - sum_m min(N_m, r), by Poissonization.

    Each urn gets an independent Pois(n p) count c, and mass[j, h] = P(j balls
    so far, sum of min(c, r) so far = h), j <= n, h <= H = min(n, s r), is
    carried one urn at a time: c < r moves mass by (c, c) in r shifted adds,
    c >= r by (c, r) in one Toeplitz matmul, one kernel per distinct p.  Given
    N = n the counts are multinomial, so row n, normalised, is the law of n - V;
    its mass must be P(Pois(n) = n) within 1e-10 relative, else ValueError.
    Those Pois(n p) laws and P(Pois(n) = n) are one _pmf_rows call, a ratio
    product where the mean is below 64.  ORACLE_BUDGET caps (n+1)^2 (H+1) +
    STEP_CELLS cells an urn."""
    if not dist.finite_support:
        raise ValueError("exact_distribution requires a finite-support distribution")
    n, r = _size("n", n), _size("r", r)
    s = dist.support_size
    top = min(n, s * r)
    if s * ((n + 1) ** 2 * (top + 1) + STEP_CELLS) > ORACLE_BUDGET:
        raise BudgetExceededError(f"the law of {n} balls in {s} urns takes more than "
                                  f"{ORACLE_BUDGET} cells: oracle budget exceeded")
    c = np.arange(n + 1)
    probs = dist.distinct_probs()
    # each urn's Pois(n p) law on 0..n, and last P(Pois(n) = c)
    terms = _pmf_rows(n, mu=n * np.array([p for p, _ in probs] + [1.0]))
    lag = np.subtract.outer(c, c)     # j - j'; negative lags are masked off
    mass = np.zeros((n + 1, top + 1))
    mass[0, 0] = 1.0
    for (_, mult), q in zip(probs, terms):
        toeplitz = np.where(lag >= r, q[lag], 0.0)
        for _ in range(mult):
            moved = q[0] * mass
            for k in range(1, min(r, n + 1)):
                moved[k:, k:] += q[k] * mass[:-k, :-k]
            moved[:, r:] += toeplitz @ mass[:, :-r]   # no columns when r > n
            mass = moved
    total = float(mass[n].sum())
    if not abs(total / terms[-1, n] - 1.0) <= 1e-10:
        raise ValueError(f"pmf mass {total} is not P(Pois(n) = n) within 1e-10 at n={n}")
    pmf = {n - h: float(mass[n, h] / total) for h in range(top, min(n, r) - 1, -1)}
    mean = sum(v * w for v, w in pmf.items())
    var = sum((v - mean) ** 2 * w for v, w in pmf.items())
    return ExactDistribution(pmf=pmf, n=n, r=r, mean=mean, variance=var)


# ---------------------------------------------------------------------------
# negative orthant dependence, by a ball-by-ball recurrence
# ---------------------------------------------------------------------------

def nod_joint_table(dist: BoxDistribution, n: int, k: int, l: int,
                    m1: int, m2: int) -> np.ndarray:
    """table[x1, x2] = P(N_k(m1) >= x1, N_l(m2) >= x2), where N_k(m1) counts
    m1 among the first k-1 balls and N_l(m2) counts m2 among the first l-1.

    The joint law of the two counts is carried forward one ball at a time in
    an (l+1) x (l+1) array: each of the first k-1 balls moves mass by (+1, 0)
    with p1, by (0, +1) with p2 and leaves it with 1 - p1 - p2; each later
    ball moves it by (0, +1) with p2.  ORACLE_BUDGET caps the (l-1)(l+1)^2
    cells updated."""
    n, k, l, m1, m2 = (_size(name, v, None) for name, v in
                       (("n", n), ("k", k), ("l", l), ("m1", m1), ("m2", m2)))
    if m1 == m2:
        raise ValueError("m1 and m2 must be distinct urns")
    if not (1 <= k <= l <= n + 1):
        raise ValueError("need 1 <= k <= l <= n+1")
    if not dist.finite_support:
        raise ValueError("the negative-dependence table requires a finite support")
    s = dist.support_size
    if not (0 <= m1 < s and 0 <= m2 < s):
        raise ValueError("urn index outside the support")
    if (l - 1) * (l + 1) ** 2 > ORACLE_BUDGET:
        raise BudgetExceededError(
            f"{(l - 1) * (l + 1) ** 2} cells exceed oracle budget {ORACLE_BUDGET}")
    p1, p2 = map(float, dist.support_probs()[[m1, m2]])
    mass = np.zeros((l + 1, l + 1))   # mass[c1, c2]: the joint law of the counts so far
    mass[0, 0] = 1.0
    for ball in range(l - 1):
        up, keep = (p1, max(1.0 - p1 - p2, 0.0)) if ball < k - 1 else (0.0, 1.0 - p2)
        moved = keep * mass
        moved[1:, :] += up * mass[:-1, :]
        moved[:, 1:] += p2 * mass[:, :-1]
        mass = moved
    # survival table: P(C1 >= x1, C2 >= x2) via 2-d suffix sums
    return np.flip(np.cumsum(np.cumsum(np.flip(mass), axis=0), axis=1))


def nod_check(dist: BoxDistribution, n: int, k: int, l: int,
              m1: int, m2: int, x1: int, x2: int):
    """(joint, product, holds) for P(N_k(m1)>=x1, N_l(m2)>=x2) <= product of
    marginals, all read from nod_joint_table's law: the joint at [x1, x2],
    the two marginals at [x1, 0] and [0, x2]."""
    table = nod_joint_table(dist, n, k, l, m1, m2)
    x1 = min(max(_size("x1", x1, None), 0), table.shape[0] - 1)
    x2 = min(max(_size("x2", x2, None), 0), table.shape[1] - 1)
    joint = float(table[x1, x2])
    product = float(table[x1, 0] * table[0, x2])
    return joint, product, joint <= product + 1e-12
