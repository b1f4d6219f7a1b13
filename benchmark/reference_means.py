"""Recompute the exact finite-n overflow means the benchmark checks against.

E V_{n,r} = sum_j E(Bin(n, p_j) - r)^+ with p_j = p (1-p)^j, and
E(X - r)^+ = sum_{t >= r} P(X > t).  The sum runs over the geometric support
with ``scipy.stats.binom.sf``, a route independent of ``urnoverflow.exact``
(whose own routes take minutes to hours on the fig2 and fig4 instances).
The fig3 value is ``exact_mean_via_counts`` from the package, which is fast
on uniform instances.

    python3 benchmark/reference_means.py      # about a minute on one core
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.stats import binom

ROOT = Path(__file__).resolve().parents[1]
CHUNK = 200_000   # urns per vectorized block
TERMS = 40        # t = r .. r+TERMS-1; P(X > t) is below 1e-30 beyond that here


def geometric_mean_overflow(p: float, n: int, r: int) -> float:
    """E V_{n,r} for Geometric(p), summed urn by urn until terms vanish."""
    t = np.arange(r, r + TERMS)
    total = 0.0
    j0 = 0
    while True:
        pj = p * (1.0 - p) ** np.arange(j0, j0 + CHUNK)
        block = binom.sf(t[None, :], n, pj[:, None]).sum()
        total += block
        if block < 1e-17 * total:
            return total
        j0 += CHUNK


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from urnoverflow.cli import PRESETS
    from urnoverflow.distributions import Uniform
    from urnoverflow.exact import exact_mean_via_counts

    fig3 = PRESETS["fig3"]
    print("fig3", repr(exact_mean_via_counts(Uniform(fig3["m"]), fig3["n"], fig3["r"])))
    for name in ("fig2", "fig4"):
        pre = PRESETS[name]
        print(name, repr(float(geometric_mean_overflow(pre["p"], pre["n"], pre["r"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
