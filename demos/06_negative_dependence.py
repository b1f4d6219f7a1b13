"""Negative orthant dependence of urn counts, checked exactly.

For two distinct urns, the joint probability that both counts exceed their
thresholds never exceeds the product of the marginal tail probabilities.
The joint law of the two counts is carried forward one ball at a time; the
marginals come from the same table, its row 0 and column 0.
"""

from urnoverflow import Custom, nod_check

dist = Custom([5, 3, 2])
n = 6
print("P(N_k(m1) >= x1, N_l(m2) >= x2) <= product of marginals:")
for (k, l, m1, m2, x1, x2) in [(3, 5, 0, 1, 1, 1), (4, 6, 0, 2, 2, 1),
                               (2, 7, 1, 0, 1, 3), (5, 5, 2, 1, 2, 2)]:
    joint, product, holds = nod_check(dist, n, k, l, m1, m2, x1, x2)
    print(f"  k={k} l={l} urns ({m1},{m2}) thresholds ({x1},{x2}): "
          f"joint {joint:.6f} <= product {product:.6f}  [{holds}]")
