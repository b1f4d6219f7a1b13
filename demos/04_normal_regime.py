"""Normal limit of the overflow when the scaled moment diverges.

With n = 10^4, r = 2 and m = 25,118 uniform urns the overflow is large
(mean about 217) and, after standardizing by the empirical mean and standard
deviation, close to N(0,1).  The Kolmogorov-Smirnov statistic quantifies the
remaining discrepancy.
"""

import math

import numpy as np

from urnoverflow import (ExperimentConfig, Uniform, ks_normal, regime_report,
                         run_experiment)

dist = Uniform(25_118)
cfg = ExperimentConfig(dist=dist, n=10_000, r=2, reps=5_000, seed=321)
report = regime_report(dist, cfg.n, cfg.r)
print(f"regime classification: {report.classification} "
      f"(scaled moment = {report.scaled_moment:.1f})")

v = run_experiment(cfg)["V"]
sd = math.sqrt(v.variance)
print(f"empirical mean {v.mean:.2f}, sd {sd:.2f}")

values = np.fromiter(v.histogram, dtype=float)
ks = ks_normal((values - v.mean) / sd, list(v.histogram.values()))
print(f"KS statistic of standardized V against N(0,1): {ks:.4f}")
