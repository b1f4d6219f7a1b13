"""Throw n balls into capacity-r urns and inspect one allocation trial.

Shows the three statistics of interest -- overflow V, full urns L, exactly
full urns M -- and checks the telescoping identities that tie them to the
overflow at neighboring capacities.
"""

import numpy as np

from urnoverflow import Uniform, overflow_stats, run_trial, streaming_overflow

dist = Uniform(50)
n, r = 200, 3

# run_trial draws the balls, computes (V, L, M) and checks them against the
# urn counts
v, full, exactly = run_trial(dist, n, r, np.random.default_rng(42))
print(f"{n} balls into {dist.urn_count} urns, capacity {r}")
print(f"  overflow V        = {v}")
print(f"  full urns L       = {full}")
print(f"  exactly full M    = {exactly}")

# the same stream gives the same balls; L = V_{r-1} - V_r and
# M = V_{r-1} - 2 V_r + V_{r+1}, exactly, per trial
balls = dist.sample(np.random.default_rng(42), n)
assert overflow_stats(balls, r) == (v, full, exactly)
v_lo = streaming_overflow(balls, r - 1)
v_hi = streaming_overflow(balls, r + 1)
assert full == v_lo - v
assert exactly == v_lo - 2 * v + v_hi
print("telescoping identities hold exactly on this trial")
