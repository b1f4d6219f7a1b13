"""Urn overflow laboratory.

Simulation and exact computation for n balls thrown independently into urns
of capacity r: the overflow V, the full-urn count L and the exactly-full
count M, with diagnostics for the Poisson and normal limit regimes.
"""

__version__ = "0.1.0"

from .allocation import overflow_stats, run_trial, streaming_overflow
from .asymptotics import RegimeReport, poisson_pmf, regime_report
from .distributions import (BoxDistribution, Custom, Geometric, Uniform,
                            parse_dist_spec)
from .exact import (BudgetExceededError, ExactDistribution, binomial_tail,
                    exact_distribution, exact_mean_overflow,
                    exact_mean_via_counts, nod_check, nod_joint_table, tail_bound)
from .montecarlo import ExperimentConfig, run_experiment
from .stats import EmpiricalSummary, chi_square_poisson, ks_normal, tv_distance_poisson

__all__ = [
    "BoxDistribution", "BudgetExceededError", "Custom",
    "EmpiricalSummary", "ExactDistribution", "ExperimentConfig", "Geometric",
    "RegimeReport", "Uniform", "binomial_tail", "chi_square_poisson",
    "exact_distribution", "exact_mean_overflow",
    "exact_mean_via_counts",
    "ks_normal", "nod_check", "nod_joint_table", "overflow_stats",
    "parse_dist_spec", "poisson_pmf",
    "regime_report", "run_experiment", "run_trial",
    "streaming_overflow", "tail_bound", "tv_distance_poisson",
]
