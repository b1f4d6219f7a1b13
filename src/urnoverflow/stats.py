"""Empirical summaries and goodness-of-fit statistics.

The overflow is integer valued, so Poisson comparisons use total variation
and a pooled chi-square; the normal comparison standardizes the samples and
uses the one-sample Kolmogorov-Smirnov statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .asymptotics import poisson_pmf

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
        hist = {int(k): int(v) for k, v in sorted(histogram.items())}
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


def _poisson_support(mu: float) -> tuple[np.ndarray, float]:
    """Poisson pmf truncated where the remaining tail mass < POISSON_TAIL_TOL;
    returns (pmf over 0..K, tail mass beyond K)."""
    pmf = []
    cum = 0.0
    k = 0
    while cum < 1.0 - POISSON_TAIL_TOL:
        term = poisson_pmf(mu, k)
        pmf.append(term)
        cum += term
        k += 1
        if k > 10_000_000:
            raise RuntimeError("poisson truncation failed to converge")
    return np.array(pmf), max(1.0 - cum, 0.0)


def tv_distance_poisson(summary: EmpiricalSummary, mu: float) -> float:
    """Total variation between the empirical law and Pois(mu); the truncated
    Poisson tail mass counts toward the discrepancy."""
    if summary.reps < 1:
        raise ValueError("need at least one replication")
    pois, tail = _poisson_support(mu)
    top = max(max(summary.histogram), pois.size - 1)
    emp = np.zeros(top + 1)
    for k, v in summary.histogram.items():
        if k >= 0:
            emp[k] = v / summary.reps
    theory = np.zeros(top + 1)
    theory[: pois.size] = pois
    return 0.5 * (np.abs(emp - theory).sum() + tail)


def chi_square_poisson(summary: EmpiricalSummary, mu: float) -> tuple[float, int]:
    """Pearson chi-square of the histogram against Pois(mu)*reps, with cells
    pooled from the right until every expected count is >= 5."""
    if summary.reps < 50:
        raise ValueError("need at least 50 replications")
    pois, tail = _poisson_support(mu)
    top = max(max(summary.histogram), pois.size - 1)
    expected = np.zeros(top + 2)
    expected[: pois.size] = pois * summary.reps
    expected[-1] = tail * summary.reps  # open right tail cell
    observed = np.zeros(top + 2)
    for k, v in summary.histogram.items():
        observed[min(max(k, 0), top + 1)] += v
    # pool from the right
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
    if len(cells_exp) < 2:
        raise ValueError("degenerate fit: fewer than 2 cells after pooling")
    e = np.array(cells_exp)
    o = np.array(cells_obs)
    return float(((o - e) ** 2 / e).sum()), len(cells_exp) - 1


def ks_normal(samples) -> float:
    """One-sample Kolmogorov-Smirnov statistic against N(0,1).

    The caller standardizes by the empirical mean and standard deviation.
    The normal CDF is scipy's ndtr (erf-based, far better than 1e-7).

    The statistic assumes continuous samples.  On an integer-valued
    statistic the empirical CDF jumps by each atom's mass where any
    continuous CDF does not, so the value is at least half the largest
    atom, however many samples are drawn.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 1:
        raise ValueError("need at least one sample")
    cdf = ndtr(x)
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    return float(max(d_plus, d_minus))

