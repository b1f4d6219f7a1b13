"""Urn overflow laboratory.

Simulation and exact computation for n balls thrown independently into urns
of capacity r: the overflow V, the full-urn count L and the exactly-full
count M, with diagnostics for the Poisson and normal limit regimes.
"""

__version__ = "0.1.0"

from .allocation import (AllocationOutcome, counts_from_sequence, full_counts,
                         overflow_from_counts, overflow_stats, run_trial,
                         streaming_overflow)
from .asymptotics import RegimeReport, geometric_scaled_moment, poisson_pmf, regime_report
from .distributions import (BoxDistribution, Custom, Geometric, Uniform,
                            p_star, parse_dist_spec, power_moment, sample_box)
from .exact import (BudgetExceededError, ExactDistribution, binomial_tail,
                    exact_distribution, exact_mean_overflow,
                    exact_mean_via_counts, nod_check, nod_joint_table,
                    sequence_enumeration_distribution, tail_bound)
from .montecarlo import ExperimentConfig, run_experiment
from .stats import EmpiricalSummary, chi_square_poisson, ks_normal, tv_distance_poisson

__all__ = [
    "AllocationOutcome", "BoxDistribution", "BudgetExceededError", "Custom",
    "EmpiricalSummary", "ExactDistribution", "ExperimentConfig", "Geometric",
    "RegimeReport", "Uniform", "binomial_tail", "chi_square_poisson",
    "counts_from_sequence", "exact_distribution", "exact_mean_overflow",
    "exact_mean_via_counts", "full_counts", "geometric_scaled_moment",
    "ks_normal", "nod_check", "nod_joint_table", "overflow_from_counts", "overflow_stats",
    "p_star", "parse_dist_spec", "poisson_pmf", "power_moment",
    "regime_report", "run_experiment", "run_trial", "sample_box",
    "sequence_enumeration_distribution", "streaming_overflow", "tail_bound",
    "tv_distance_poisson",
]
