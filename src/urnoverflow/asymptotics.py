"""Limit-regime diagnostics: the Poisson intensity, the conditions behind the
Poisson and normal limits, and the finite-n / asymptotic variance bracket.

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

from .distributions import BoxDistribution

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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    """e^(-mu) mu^k / k!, evaluated in log space; Pois(0) is the point mass at 0."""
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu!r}")
    if k < 0:
        return 0.0
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
