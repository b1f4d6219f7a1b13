"""Limit-regime diagnostics: the Poisson intensity, the conditions behind the
Poisson and normal limits, and the finite-n / asymptotic variance bracket;
and the saddle-point pmf kernel, _pmf_terms, which exact, stats and cli import.

A single (dist, n) pair cannot decide an asymptotic statement, so the
classification is an explicitly labeled heuristic:

* PoissonCandidate  if n*p_star <= 0.05 and the scaled moment <= 50,
* NormalCandidate   if the scaled moment >= 500,
* Indeterminate     otherwise.

The raw diagnostics are always reported next to the label so users can judge
their own sequence of instances.  The lower variance constant only bounds a
liminf, hence the field name var_lower_asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import BoxDistribution, _size

__all__ = [
    "RegimeReport",
    "regime_report",
    "poisson_pmf",
    "N_P_STAR_POISSON_MAX",
    "SCALED_MOMENT_POISSON_MAX",
    "SCALED_MOMENT_NORMAL_MIN",
]

N_P_STAR_POISSON_MAX = 0.05
SCALED_MOMENT_POISSON_MAX = 50.0
SCALED_MOMENT_NORMAL_MIN = 500.0


@dataclass(frozen=True)
class RegimeReport:
    n_p_star: float
    scaled_moment: float
    mu: float
    var_upper: float
    var_lower_asymptotic: float
    classification: str

    def to_dict(self) -> dict:
        return dict(vars(self))      # the fields in order, without asdict's deep copy


def _classify(n_p_star: float, scaled_moment: float) -> str:
    if n_p_star <= N_P_STAR_POISSON_MAX and scaled_moment <= SCALED_MOMENT_POISSON_MAX:
        return "PoissonCandidate"
    if scaled_moment >= SCALED_MOMENT_NORMAL_MIN:
        return "NormalCandidate"
    return "Indeterminate"


def regime_report(dist: BoxDistribution, n: int, r: int) -> RegimeReport:
    """Diagnostics for the instance: n*p*, n^(r+1)*E p^r, mu, variance bracket."""
    n, r = _size("n", n), _size("moment order r", r)
    # below 2**1000 the floats n p*, (r+1) log n and lgamma(r+2) stay finite
    for name, value in (("n", n), ("moment order r", r)):
        if value.bit_length() > 1000:
            raise ValueError(f"{name} must be < 2**1000, got {value}")
    nps = n * dist.p_star()
    pm = dist.power_moment(r)
    try:
        # from r = 170 on (r+1)! passes the float range: skip building it to find out
        if r >= 170:
            raise OverflowError
        scaled = float(n) ** (r + 1) * pm
        mu = scaled / math.factorial(r + 1)
        var_upper = scaled / math.factorial(r)
        var_lower = math.exp(-2.0 * nps) / math.factorial(r + 1) * scaled
    except OverflowError:
        # n^(r+1) or (r+1)! is beyond float range: the same quantities in logs
        # (a power moment that underflowed to 0 stays 0)
        log_scaled = (r + 1) * math.log(n) + (math.log(pm) if pm > 0.0 else -math.inf)
        try:
            scaled = math.exp(log_scaled)
        except OverflowError:
            raise ValueError(f"scaled moment n^(r+1)*E p^r = exp({log_scaled:.1f}) "
                             "exceeds the float range") from None
        mu = math.exp(log_scaled - math.lgamma(r + 2))
        var_upper = math.exp(log_scaled - math.lgamma(r + 1))
        var_lower = math.exp(log_scaled - 2.0 * nps - math.lgamma(r + 2))
    return RegimeReport(
        n_p_star=nps,
        scaled_moment=scaled,
        mu=mu,
        var_upper=var_upper,
        var_lower_asymptotic=var_lower,
        classification=_classify(nps, scaled),
    )


def poisson_pmf(mu: float, k: int) -> float:
    """e^(-mu) mu^k / k! by Loader's saddle point (_pmf_terms); Pois(0) is the
    point mass at 0."""
    _check_mu(mu)
    if _size("k", k, None) < 0:
        return 0.0
    return float(_pmf_terms(k, mu=mu))


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu!r}")


# ---------------------------------------------------------------------------
# Poisson and binomial terms by C. Loader's saddle point ("Fast and accurate
# computation of binomial probabilities", 2000), the pair behind R's dpois and
# dbinom: every pmf term of the package but those of exact._pmf_rows's ratio
# rows, the rows whose first term is at least e^-64, comes from _pmf_terms.
# ---------------------------------------------------------------------------

# Stirling's series log k! - log(sqrt(2 pi k) (k/e)^k) = sum_j c_j / k^(2j-1):
# from k = 16 on, the first dropped term, 691/360360 k^-11, is below 1.1e-16
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _horner(coefs: tuple, x):
    """The polynomial with coefs (at least two), highest power first, at x,
    in place in one array (np.polyval makes two arrays a coefficient)."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _stirling_series(k):
    return _horner(_STIRLING, 1.0 / (k * k)) / k


def _stirlerr_below_16() -> np.ndarray:
    """stirlerr(k) for k = 0..15 (0 at k = 0), down from the series at 16 by
    stirlerr(k) = stirlerr(k+1) + (k + 1/2) log1p(1/k) - 1: within 4e-16 of
    60-digit values, where lgamma(k+1) - (k + 1/2) log k + k - log sqrt(2 pi)
    cancels to errors of up to 7e-15."""
    table = np.zeros(17)
    table[16] = _stirling_series(16.0)
    for k in range(15, 0, -1):
        table[k] = table[k + 1] + (k + 0.5) * math.log1p(1.0 / k) - 1.0
    return table[:16]


_STIRLERR_SMALL = _stirlerr_below_16()
# 2/3, 2/5, ..., 2/31, highest power first: bd0 - (x - m) v = x v w (2/3 +
# 2w/5 + ...) for w = v^2 < 1/9, where the first dropped term moves bd0 by
# less than 7e-17 relative
_BD0_SERIES = tuple(2.0 / j for j in range(31, 2, -2))


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """log k! - log(sqrt(2 pi k) (k/e)^k) for integer-valued k >= 0, taken as
    0 at k = 0: a table below 16, Stirling's series from 16 up."""
    return np.where(k < 16, _STIRLERR_SMALL.take(k.astype(np.intp), mode="clip"),
                    _stirling_series(np.maximum(k, 16.0)))


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x/m) + m - x >= 0 without its cancellation near x = m: there,
    where |v| < 1/3 for v = (x - m)/(x + m), that is m/2 < x < 2m, as
    (x - m) v + 2x (v^3/3 + v^5/5 + ...); elsewhere as
    x log1p((x - m)/m) - (x - m), whose two terms there cancel to no less
    than a fourth of the larger, and m at x = 0.  It is +inf for x > 0 = m."""
    d = x - m
    s = x + m
    v = d / s
    w = v * v
    series = v * (d + x * w * _horner(_BD0_SERIES, w))
    far = x * np.log1p(d / m) - d
    return np.where(w < 1 / 9, series, np.where(x == 0.0, m, far))


def _pmf_terms(k, *, mu=None, n=None, p=None) -> np.ndarray:
    """P(X = k), elementwise over the broadcast integer-valued k >= 0 and
    means: X = Pois(mu), or X = Bin(n, p) for an integer n >= k, 0 <= p <= 1.

    By Loader's saddle point, P(Pois(mu) = k) = e^(-stirlerr(k) - bd0(k, mu))
    / sqrt(2 pi k) and P(Bin(n, p) = k) = e^(stirlerr(n) - stirlerr(k) -
    stirlerr(n-k) - bd0(k, n p) - bd0(n-k, n q)) sqrt(n / (2 pi k (n-k))),
    with the square root 1 at k = 0 and k = n: each term is within a few
    float epsilons times bd0 of the true value, with no factorial, power or
    sum over k.  Pois(0), and Bin(n, p) with p = 0 or 1, are point masses."""
    k = np.asarray(k, dtype=np.float64)
    # a point mass, or a mean so small that (x - m)/m overflows, gives inf or nan
    # in the branch of _bd0 that np.where drops, or a bd0 of +inf: a term of 0
    with np.errstate(all="ignore"):
        if n is None:
            log_term = -_stirlerr(k) - _bd0(k, mu)
            scale = 2.0 * math.pi * k
        else:
            log_term = (_stirlerr(np.float64(n)) - _stirlerr(k) - _stirlerr(n - k)
                        - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p)))
            scale = 2.0 * math.pi * k * (n - k) / n
        # scale is at least pi where 0 < k (< n), and 0, or nan at n = 0, at the ends
        return np.exp(log_term) / np.sqrt(np.fmax(scale, 1.0))
