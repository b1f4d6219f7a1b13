"""Sweep urn counts and watch the predicted limiting regime switch.

For uniform urns with n fixed, many urns push the scaled moment toward a
finite Poisson intensity while few urns push it to infinity (normal regime);
in between the thresholds the report stays honest and says Indeterminate.
"""

from urnoverflow import Uniform, regime_report

n, r = 10_000, 2
for m in (10_000, 25_118, 100_000, 333_333, 2_000_000):
    rep = regime_report(Uniform(m), n, r)
    print(f"m = {m:>9,}: scaled moment {rep.scaled_moment:>12.2f}  "
          f"n*p* {rep.n_p_star:.4f}  mu {rep.mu:.3f}  -> {rep.classification}")
