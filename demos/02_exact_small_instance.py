"""Exact overflow law on a small instance, and its mean three ways.

An urn-by-urn recurrence over Poisson counts, conditioned on n balls in all,
gives the whole exact law; its mean agrees with the two closed-form mean
formulas to floating-point precision.
"""

from urnoverflow import Custom, exact_distribution, exact_mean_overflow, exact_mean_via_counts

dist = Custom([5, 3, 2])
n, r = 6, 2

law = exact_distribution(dist, n, r)

print(f"exact law of the overflow, n={n}, r={r}, weights 5:3:2")
for v, p in law.pmf.items():
    print(f"  P(V = {v}) = {p:.10f}")

m1 = exact_mean_overflow(dist, n, r)
m2 = exact_mean_via_counts(dist, n, r)
print(f"mean via arrival-time tails : {m1:.12f}")
print(f"mean via per-urn retention  : {m2:.12f}")
print(f"mean from the exact law     : {law.mean:.12f}")
assert abs(m1 - m2) < 1e-12 and abs(m1 - law.mean) < 1e-12
