"""Empirical summaries and goodness-of-fit statistics.

The overflow is integer valued, so Poisson comparisons use total variation
and a pooled chi-square; the normal comparison standardizes the samples and
uses the one-sample Kolmogorov-Smirnov statistic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _check_mu, _pmf_terms
from .distributions import _size

__all__ = [
    "EmpiricalSummary",
    "tv_distance_poisson",
    "chi_square_poisson",
    "ks_normal",
]

POISSON_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalSummary:
    """Histogram of an integer statistic over Monte Carlo replications."""

    histogram: dict
    reps: int
    mean: float
    variance: float

    @classmethod
    def from_histogram(cls, histogram) -> "EmpiricalSummary":
        hist = {_size("histogram value", k, None): _size("histogram count", v, 0)
                for k, v in sorted(histogram.items())}
        reps = sum(hist.values())
        if reps < 1:
            raise ValueError("empty histogram")
        # values are integers, so these sums are exact; the result is
        # independent of accumulation order across threads
        total = sum(k * v for k, v in hist.items())
        mean = total / reps
        ss = sum(v * (k - mean) ** 2 for k, v in hist.items())
        variance = ss / (reps - 1) if reps > 1 else 0.0
        return cls(histogram=hist, reps=reps, mean=mean, variance=variance)


@functools.lru_cache(maxsize=1)
def _poisson_terms(mu: float) -> tuple[int, np.ndarray, float]:
    """(lo, read-only Pois(mu) pmf on lo..K, its summed mass), built once per mu
    for both fits.  lo = max(0, ceil(mu - 40 sqrt(mu))): by Chernoff the terms
    below lo are under e^-800, and the term at lo is under e^-799 when lo > 0,
    so all are 0.0 in float64.  The pmf runs until its mass reaches
    1 - POISSON_TAIL_TOL, or at most to ceil(mu + 12 sqrt(mu) + 40), beyond
    which Bernstein's inequality leaves less than 1e-26 of the mass: summed pmf
    terms of a large mu can stop short of 1 - POISSON_TAIL_TOL by rounding alone."""
    _check_mu(mu)
    bound = math.ceil(mu + 12.0 * math.sqrt(mu) + 40.0)
    if bound >= 10_000_000:
        raise ValueError(f"the Poisson table for mu = {mu!r} would run to k = {bound} >= 10^7")
    lo = max(0, math.ceil(mu - 40.0 * math.sqrt(mu)))
    pmf = _pmf_terms(np.arange(lo, bound + 1), mu=mu)
    # np.cumsum adds in index order, as a loop would
    cum = np.cumsum(pmf)
    top = min(int(np.searchsorted(cum, 1.0 - POISSON_TAIL_TOL)), pmf.size - 1)
    pmf = pmf[:top + 1].copy()
    pmf.flags.writeable = False
    return lo, pmf, float(cum[top])


def _poisson_table(summary: EmpiricalSummary, mu: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(observed counts, Pois(mu) pmf, Poisson mass beyond them) on lo..K, K at
    least the largest observed value; a value below lo counts at lo, whose
    term is 0.0 when lo > 0."""
    lo, pmf, cum = _poisson_terms(mu)
    top = max(max(summary.histogram) - lo, pmf.size - 1)
    observed = np.zeros(top + 1)
    for k, v in summary.histogram.items():
        observed[max(k - lo, 0)] += v
    return observed, np.pad(pmf, (0, top + 1 - pmf.size)), max(1.0 - cum, 0.0)


def tv_distance_poisson(summary: EmpiricalSummary, mu: float) -> float:
    """Total variation between the empirical law and Pois(mu); the truncated
    Poisson tail mass counts toward the discrepancy."""
    if summary.reps < 1:
        raise ValueError("need at least one replication")
    observed, theory, tail = _poisson_table(summary, mu)
    # rounding can carry the sum past 1, which no distance exceeds
    return min(0.5 * (np.abs(observed / summary.reps - theory).sum() + tail), 1.0)


def chi_square_poisson(summary: EmpiricalSummary, mu: float) -> tuple[float, int]:
    """Pearson chi-square of the histogram against Pois(mu)*reps, with cells
    pooled from the right until every expected count is >= 5."""
    if summary.reps < 50:
        raise ValueError("need at least 50 replications")
    observed, theory, tail = _poisson_table(summary, mu)
    expected = np.append(theory * summary.reps, tail * summary.reps)  # open right tail cell
    observed = np.append(observed, 0.0)
    # pool from the right over the cells that hold mass: an empty cell adds
    # +0.0 to both sums and never closes a cell
    held = (expected > 0.0) | (observed > 0.0)
    cells_exp, cells_obs = [], []
    acc_e = acc_o = 0.0
    # Python floats add as float64 does, without a numpy scalar per cell
    for e, o in zip(expected[held][::-1].tolist(), observed[held][::-1].tolist()):
        acc_e += e
        acc_o += o
        if acc_e >= 5.0:
            cells_exp.append(acc_e)
            cells_obs.append(acc_o)
            acc_e = acc_o = 0.0
    if cells_exp and acc_e > 0:
        cells_exp[-1] += acc_e
        cells_obs[-1] += acc_o
    if len(cells_exp) < 2:
        raise ValueError("degenerate fit: fewer than 2 cells after pooling")
    e = np.array(cells_exp)
    o = np.array(cells_obs)
    return float(((o - e) ** 2 / e).sum()), len(cells_exp) - 1


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = erfc(-x/sqrt(2))/2 by the standard library's erfc, within
    2.2e-16 absolute of scipy.special.ndtr over [-40, 40]."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])


def ks_normal(values, counts) -> float:
    """One-sample Kolmogorov-Smirnov statistic against N(0,1) of the sample
    that holds counts[i] copies of values[i].

    The caller standardizes by the empirical mean and standard deviation.
    The normal CDF is _normal_cdf, by the standard library's erfc, once per value.

    The statistic assumes continuous samples.  On an integer-valued
    statistic the empirical CDF jumps by each atom's mass where any
    continuous CDF does not, so the value is at least half the largest
    atom, however many samples are drawn.
    """
    x = np.asarray(values, dtype=np.float64)
    c = np.asarray(counts)
    if x.ndim != 1 or x.shape != c.shape:
        raise ValueError(f"values and counts must be 1-d of one shape, got {x.shape}, {c.shape}")
    if not np.isfinite(x).all():
        raise ValueError("values must be finite")
    if np.any(c < 0) or np.any(c % 1 != 0):
        raise ValueError("counts must be integers >= 0")
    order = np.argsort(x)
    cum = np.cumsum(c[order])
    if cum.size < 1 or cum[-1] < 1:
        raise ValueError("need at least one sample")
    cdf = _normal_cdf(x[order])
    d_plus = (cum / cum[-1] - cdf).max()
    d_minus = (cdf - (cum - c[order]) / cum[-1]).max()
    return float(max(d_plus, d_minus))
