"""Poisson limit of the overflow when urns are many and nearly even.

With n = 10^4 balls, capacity r = 2 and m = 333,333 equally likely urns the
scaled moment n^(r+1) E p^r equals 3!*1.5, so V should be close to Pois(1.5).
The demo runs the experiment and reports total variation and a pooled
chi-square against that Poisson law.
"""

from urnoverflow import (ExperimentConfig, Uniform, chi_square_poisson,
                         regime_report, run_experiment, tv_distance_poisson)

dist = Uniform(333_333)
cfg = ExperimentConfig(dist=dist, n=10_000, r=2, reps=5_000, seed=123)
report = regime_report(dist, cfg.n, cfg.r)
print(f"regime classification: {report.classification}  (mu = {report.mu:.4f})")

v = run_experiment(cfg)["V"]
print(f"empirical mean {v.mean:.4f}, variance {v.variance:.4f} "
      f"(a Poisson law would have both equal to mu)")
print(f"TV distance to Pois({report.mu:.2f}): {tv_distance_poisson(v, report.mu):.4f}")
statistic, dof = chi_square_poisson(v, report.mu)
print(f"pooled chi-square: {statistic:.2f} on {dof} degrees of freedom")
