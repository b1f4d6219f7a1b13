import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from oracles import (binomial_tail_rational, exact_mean_rational, loop_mean_overflow,
                     loop_overflow_pmf, occupancy_pmf, sequence_nod_table,
                     sequence_overflow_pmf, tail_bound)
from urnoverflow import exact
from urnoverflow.asymptotics import regime_report
from urnoverflow.distributions import Custom, Geometric, Uniform
from urnoverflow.exact import (BudgetExceededError, binomial_tail,
                               exact_distribution, exact_mean_overflow,
                               exact_mean_via_counts, nod_check, nod_joint_table)

# Custom([1, 1e-20]) has an urn whose Poisson count is all but never above 0
SMALL_DISTS = [Uniform(1), Uniform(2), Uniform(3), Custom([3, 1]), Custom([5, 3, 2]),
               Custom([1, 1e-20])]


def test_binomial_tail_examples():
    assert binomial_tail(3, 0.5, 2) == pytest.approx(0.5, abs=1e-12)  # (3+1)/8
    assert binomial_tail(17, 0.3, 0) == 1.0
    assert binomial_tail(2, 0.1, 3) == 0.0


@pytest.mark.parametrize("k,p,r", [
    (10, 0.3, 4), (60, 0.5, 30), (60, 0.01, 2), (5, 0.9, 5),
    (100, 0.5, 50), (1, 0.2, 1), (40, 0.99, 39),
])
def test_binomial_tail_matches_scipy(k, p, r):
    assert binomial_tail(k, p, r) == pytest.approx(sps.binom.sf(r - 1, k, p),
                                                   rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("p", [0.005, 0.1, 0.37, 0.5, 0.9, 0.995])
def test_binomial_tail_matches_scipy_on_the_small_grid(p):
    for k in range(61):
        r = np.arange(k + 2)
        got = np.array([binomial_tail(k, p, int(x)) for x in r])
        np.testing.assert_allclose(got, sps.binom.sf(r - 1, k, p), rtol=0, atol=1e-12)


def test_binomial_tail_stable_at_figure_scale():
    # k = 1e5, p = 1e-6: tail must match the Poisson-size answer, not underflow
    got = binomial_tail(100_000, 1e-6, 3)
    assert got == pytest.approx(sps.binom.sf(2, 100_000, 1e-6), rel=1e-9)
    # deep tail of a large symmetric binomial
    got = binomial_tail(100_000, 0.5, 51_000)
    assert got == pytest.approx(sps.binom.sf(50_999, 100_000, 0.5), rel=1e-8)


@pytest.mark.parametrize("k,p,r", [
    (1, 1e-9, 1), (10, 1e-12, 1), (3, 1e-5, 1),
    (9999, 1 / 25118, 2), (10_000, 1e-4, 4), (10_000, 1e-6, 5),
])
def test_binomial_tail_keeps_small_tails_relative(k, p, r):
    # a complemented lower tail, 1 - P(Bin < r), loses the digits of a tail this small
    expected = binomial_tail_rational(k, p, r)
    assert binomial_tail(k, p, r) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("k,p,r", [
    (8, 0.25, 2), (100, 0.5, 50), (40, 0.125, 5),         # k p == r: 1 less the terms below r
    (9, 0.25, 3), (100, 0.123, 13), (1000, 0.0031, 4),    # r = ceil(k p): the terms from r up
    (7, 1.0, 7), (7, 1.0, 1),                             # p = 1
    (10, 1e-300, 1), (10, 1e-300, 2), (6, 0.0, 1),        # an underflowing p
])
def test_binomial_tail_at_the_regime_switch(k, p, r):
    assert binomial_tail(k, p, r) == pytest.approx(binomial_tail_rational(k, p, r),
                                                   rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [0, 1, 5, 60])
def test_tail_sum_on_certain_and_empty_urns(k):
    # a p = 1 row is the point mass at k and a p = 0 row the one at 0, so
    # either regime of the tail sum reads exact zeros off the row
    for r in range(-1, k + 3):
        assert binomial_tail(k, 1.0, r) == (1.0 if r <= k else 0.0)
        assert binomial_tail(k, 0.0, r) == (1.0 if r <= 0 else 0.0)
    n = k + 2
    for r in range(1, n):
        assert exact_mean_overflow(Uniform(1), n, r) == n - r


@pytest.mark.parametrize("r", [1, 2, 5, 30, 300, 1000])
def test_tail_span_leaves_less_than_e_to_the_minus_40(r):
    # n p just below r, where the terms past r fall slowest; at r = 1000 q^n
    # underflows and the row goes in logs
    n = 10 * r + 100
    row = exact._pmf_rows(n, np.array([(r - 1e-9) / n]), n)[0]
    k = np.arange(n + 1)
    for terms in (row, np.maximum(k - r, 0) * row):    # binomial_tail's sum, the mean's
        past = terms[r + 1 + exact._tail_span(r):].sum()
        assert past < math.exp(-40) * terms[r + 1:].sum()


@pytest.mark.parametrize("top", [12, 5])
def test_pmf_rows_for_every_p_in_the_unit_interval(top):
    n, ps = 12, [0.0, 1e-300, 0.3, 1.0]
    rows = exact._pmf_rows(n, np.array(ps), top)
    assert rows.shape == (len(ps), top + 1)
    for row, p in zip(rows, ps):
        p = Fraction(p)
        for k in range(top + 1):
            want = float(math.comb(n, k) * p**k * (1 - p)**(n - k))
            assert row[k] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert list(rows[-1]) == [0.0] * top + [1.0 if top == n else 0.0]


def test_tail_bound_examples():
    assert tail_bound(3, 0.5, 2) == pytest.approx(1.125, abs=1e-12)
    assert tail_bound(10, 0.1, 1) == pytest.approx(1.0, abs=1e-12)
    assert tail_bound(0, 0.7, 1) == 0.0


def test_tail_bound_dominates_tail_on_grid():
    ps = np.linspace(0.01, 0.99, 25)
    for k in range(1, 31):
        for r in range(1, k + 1):
            for p in ps:
                assert binomial_tail(k, p, r) <= tail_bound(k, p, r) + 1e-12


def test_exact_mean_uniform2_enumeration_values():
    # enumerating 4 resp. 8 equiprobable ball sequences by hand
    assert exact_mean_overflow(Uniform(2), 2, 1) == pytest.approx(0.5, abs=1e-12)
    assert exact_mean_overflow(Uniform(2), 3, 1) == pytest.approx(1.25, abs=1e-12)
    assert exact_mean_via_counts(Uniform(2), 2, 1) == pytest.approx(0.5, abs=1e-12)
    assert exact_mean_via_counts(Uniform(2), 3, 1) == pytest.approx(1.25, abs=1e-12)


def test_exact_mean_trivial_cases():
    assert exact_mean_overflow(Geometric(0.3), 3, 5) == 0.0
    assert exact_mean_via_counts(Uniform(1), 5, 2) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("dist", SMALL_DISTS + [Geometric(0.4)])
@pytest.mark.parametrize("n,r", [(2, 1), (5, 2), (8, 3), (12, 1), (3, 5)])
def test_two_mean_formulas_agree(dist, n, r):
    a = exact_mean_overflow(dist, n, r)
    b = exact_mean_via_counts(dist, n, r)
    assert a == pytest.approx(b, abs=1e-10)


def _mean_urns(dist, n, r):
    """(p, multiplicity) pairs of the urns the mean routes sum over."""
    return [pair for block in exact._urns(dist, n, r, exact.GRID_CELLS)
            for pair in zip(*block)]


@pytest.mark.parametrize("dist,n,r", [
    (Custom(list(range(1, 30))), 10, 2), (Geometric(0.01), 50, 3), (Uniform(4), 3, 3),
])
def test_urn_blocks_hold_at_most_size_urns_in_order(dist, n, r):
    blocks = list(exact._urns(dist, n, r, 7))
    assert all(0 < p.size <= 7 and p.size == mult.size for p, mult in blocks)
    assert [pair for block in blocks for pair in zip(*block)] == _mean_urns(dist, n, r)


def test_geometric_urn_masses_are_p_q_to_the_j():
    # fig4's urns: a mass built as p (1 - p)^j would round 1 - p once per power
    urns = [p for p, _ in _mean_urns(Geometric(1e-4), 10_000, 4)]
    p = Fraction(1e-4)
    for j in (0, len(urns) // 2, len(urns) - 1):
        assert urns[j] == pytest.approx(float(p * (1 - p)**j), rel=1e-14, abs=0.0)


def test_urn_budget_raises_before_any_block():
    # fig2's geometric instance: the call itself refuses, no block is drawn
    with pytest.raises(BudgetExceededError):
        exact._urns(Geometric(6.0 * 100_000 ** (-4.0 / 3.0)), 100_000, 3, 1)
    with pytest.raises(BudgetExceededError):
        exact._urns(Uniform(10**7), 10**4, 2, 1)


@pytest.mark.parametrize("dist,n,r,budget", [
    (Uniform(25_118), 10_000, 2, exact.MEAN_BUDGET),                # fig3
    (Uniform(333_333), 10_000, 2, 10**10),                          # budget lifted
    (Geometric(0.05), 200, 2, exact.MEAN_BUDGET),
])
def test_mean_routes_match_rational_oracle(monkeypatch, dist, n, r, budget):
    # the oracle sums the same urns in exact integer arithmetic
    monkeypatch.setattr(exact, "MEAN_BUDGET", budget)
    want = exact_mean_rational(_mean_urns(dist, n, r), n, r)
    assert exact_mean_overflow(dist, n, r) == pytest.approx(want, rel=1e-12)
    assert exact_mean_via_counts(dist, n, r) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [60, 17])
def test_overflow_mean_keeps_precision_where_the_retention_route_loses_it(n):
    # n p = 0.06 and 0.017: exact_mean_via_counts is 2.3e-7 and 6.1e-5 off here
    want = exact_mean_rational([(1 / 1000, 1000)], n, 5)
    assert exact_mean_overflow(Uniform(1000), n, 5) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dist,n,r", [
    (Uniform(4), 8, 2), (Uniform(5), 500, 100), (Geometric(0.25), 40, 10),  # n p == r
    (Uniform(4), 9, 3), (Uniform(3), 100, 34),                              # r = ceil(n p)
    (Uniform(1), 7, 2), (Uniform(1), 3, 1),                                 # p = 1
    (Custom([1e300, 1e-300]), 5, 1), (Custom([1e300, 1e-300, 1e-300]), 6, 2),  # p underflows
])
def test_overflow_mean_at_the_regime_switch(dist, n, r):
    want = exact_mean_rational(_mean_urns(dist, n, r), n, r)
    assert exact_mean_overflow(dist, n, r) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("r", [740, 760, 800])
def test_overflow_mean_on_pmf_rows_in_logs(r):
    # n p = 750: each row has n log q < -700 and is built in logs, r near n p
    want = exact_mean_rational([(1 / 4, 4)], 3000, r)
    assert exact_mean_overflow(Uniform(4), 3000, r) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_fig4_mean_routes():
    # the value is the independent scipy.stats.binom sum of benchmark/reference_means.py
    a = exact_mean_overflow(Geometric(1e-4), 10_000, 4)
    b = exact_mean_via_counts(Geometric(1e-4), 10_000, 4)
    assert abs(a - b) <= 1e-10
    assert a == pytest.approx(9.709662426289697, rel=1e-11)
    assert b == pytest.approx(9.709662426289697, rel=1e-11)


SMALL_INSTANCE = st.one_of(
    st.builds(Uniform, st.integers(1, 6)),
    st.builds(Custom, st.lists(st.integers(1, 20), min_size=1, max_size=4)),
    st.builds(Geometric, st.floats(0.05, 0.95)),
)


@settings(max_examples=150, deadline=None)
@given(dist=SMALL_INSTANCE, n=st.integers(1, 60), r=st.integers(1, 5))
def test_array_routes_match_loop_oracles(dist, n, r):
    want = loop_mean_overflow(_mean_urns(dist, n, r), n, r)
    assert exact_mean_overflow(dist, n, r) == pytest.approx(want, rel=1e-12, abs=0.0)
    # the retention identity subtracts terms of size n p_m from a mean of
    # size (n p_m)^(r+1), so its rounding has an absolute floor of order eps*n*r
    assert exact_mean_via_counts(dist, n, r) == pytest.approx(want, rel=1e-12, abs=1e-12)
    if dist.finite_support and math.comb(n + dist.support_size - 1, n) <= 5000:
        got = exact_distribution(dist, n, r).pmf
        loop = loop_overflow_pmf(dist.support_probs(), n, r)
        assert set(got) == set(loop)
        for v in loop:
            assert got[v] == pytest.approx(loop[v], rel=0.0, abs=1e-13)


@pytest.mark.parametrize("dist,n,r", [
    (Geometric(0.3), 40, 3), (Custom([5, 3, 2, 1]), 9, 2), (Uniform(1), 7, 2),
])
def test_blocked_routes_match_one_block(monkeypatch, dist, n, r):
    # a tiny block size splits the urns of both means into many blocks
    means = (exact_mean_overflow(dist, n, r), exact_mean_via_counts(dist, n, r))
    monkeypatch.setattr(exact, "GRID_CELLS", 7)
    assert exact_mean_overflow(dist, n, r) == pytest.approx(means[0], rel=1e-13)
    assert exact_mean_via_counts(dist, n, r) == pytest.approx(means[1], rel=1e-13)


def test_counts_route_where_q_to_the_n_underflows():
    # n p = 1000, so P(N = 0) = 2^-2000 underflows and the pmf rows go in logs
    want = loop_mean_overflow([(0.5, 2)], 2000, 900)
    assert exact_mean_via_counts(Uniform(2), 2000, 900) == pytest.approx(want, rel=1e-12)
    assert exact_mean_overflow(Uniform(2), 2000, 900) == pytest.approx(want, rel=1e-14)


def test_mean_budget_raises():
    # n*support = 1e11 exceeds MEAN_BUDGET = 1e9
    with pytest.raises(BudgetExceededError):
        exact_mean_overflow(Uniform(10**7), 10**4, 2)


@pytest.mark.parametrize("p", [1e-31, 1e-29])
@pytest.mark.parametrize("route", [exact_mean_overflow, exact_mean_via_counts])
def test_geometric_truncation_at_tiny_p_is_refused(route, p):
    # r p below about 1e-28: the truncation needs about 1e-14 / (r p) urns,
    # far past the budget, and must not round down to a single urn
    with pytest.raises(BudgetExceededError):
        route(Geometric(p), 10, 1)


def test_exact_distribution_examples():
    d = exact_distribution(Uniform(2), 4, 1)
    assert d.pmf[2] == pytest.approx(7 / 8, abs=1e-12)
    assert d.pmf[3] == pytest.approx(1 / 8, abs=1e-12)
    d = exact_distribution(Uniform(1), 3, 1)
    assert d.pmf == {2: pytest.approx(1.0)}
    d = exact_distribution(Uniform(2), 2, 1)
    assert d.pmf[0] == pytest.approx(0.5, abs=1e-12)
    assert d.pmf[1] == pytest.approx(0.5, abs=1e-12)
    assert d.mean == pytest.approx(0.5, abs=1e-12)


def test_exact_distribution_invariants():
    for dist in SMALL_DISTS:
        s = dist.support_size
        for n, r in [(3, 1), (5, 2), (6, 3), (3, 5)]:
            d = exact_distribution(dist, n, r)
            assert sum(d.pmf.values()) == pytest.approx(1.0, abs=1e-10)
            # n - V = sum_m min(N_m, r) takes every value from min(n, r) to min(n, s r)
            assert list(d.pmf) == list(range(n - min(n, s * r), n - min(n, r) + 1))
            assert d.mean == pytest.approx(exact_mean_overflow(dist, n, r), abs=1e-10)


def test_exact_distribution_matches_occupancy_oracle():
    # at r = 1, n - V is the number of occupied urns
    n, m = 40, 20
    law = exact_distribution(Uniform(m), n, 1).pmf
    occupied = occupancy_pmf(m, n)
    assert set(law) == {n - k for k in occupied}
    for k, prob in occupied.items():
        assert law[n - k] == pytest.approx(prob, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("dist,n,r", [
    (Uniform(10), 60, 3), (Custom(list(range(1, 8))), 50, 2), (Uniform(5), 100, 1),
])
def test_exact_distribution_beyond_enumeration(dist, n, r):
    # 4.6e6 to 5.7e10 count vectors of s cells, far past ORACLE_BUDGET for an enumeration
    d = exact_distribution(dist, n, r)
    want = exact_mean_rational(dist.distinct_probs(), n, r)
    assert d.mean == pytest.approx(want, rel=1e-13, abs=0.0)
    assert d.variance <= regime_report(dist, n, r).var_upper
    s = dist.support_size
    assert list(d.pmf) == list(range(n - min(n, s * r), n - min(n, r) + 1))


def test_exact_distribution_budget():
    # 50 urns of 101^2 * 101 cells each exceed ORACLE_BUDGET = 1e7
    with pytest.raises(BudgetExceededError):
        exact_distribution(Uniform(50), 100, 2)


@pytest.mark.parametrize("m,n", [(100_000, 1), (5, 700), (3, 3000)])
def test_exact_distribution_budget_counts_cells(m, n):
    # m urns of (n+1)^2 (min(n, m)+1) + STEP_CELLS cells each exceed ORACLE_BUDGET;
    # at n = 1 it is the per-step charge that refuses 1e5 urns of 8 array cells
    with pytest.raises(BudgetExceededError, match="cells"):
        exact_distribution(Uniform(m), n, 1)


def test_exact_distribution_admits_the_budget_in_cells(monkeypatch):
    # Uniform(6), n = 12, r = 2: 6 urns of 13^2 * 13 + STEP_CELLS cells
    cells = 6 * (13 ** 3 + exact.STEP_CELLS)
    monkeypatch.setattr(exact, "ORACLE_BUDGET", cells)
    assert exact_distribution(Uniform(6), 12, 2).mean == pytest.approx(2.9609356863138396,
                                                                        rel=1e-12)
    monkeypatch.setattr(exact, "ORACLE_BUDGET", cells - 1)
    with pytest.raises(BudgetExceededError):
        exact_distribution(Uniform(6), 12, 2)


def _law_cells(s, n, r):
    """The cells the law of s urns is charged: (n+1)^2 (H+1) + STEP_CELLS an urn."""
    return s * ((n + 1) ** 2 * (min(n, s * r) + 1) + exact.STEP_CELLS)


@pytest.mark.parametrize("s,n,r", [
    (9_920, 1, 1),                                            # the most urns at n = 1
    (2, 1289, 1), (2, 998, 2), (1, 2234, 1), (3, 148, 50),   # the most balls for few urns
])
def test_exact_distribution_time_at_the_budget_edge(s, n, r):
    # time predictable from the inputs: the largest admitted instances finish in
    # under a second, and one more urn or one more ball is refused
    assert _law_cells(s, n, r) <= exact.ORACLE_BUDGET
    assert min(_law_cells(s + 1, n, r), _law_cells(s, n + 1, r)) > exact.ORACLE_BUDGET
    t0 = time.perf_counter()
    d = exact_distribution(Uniform(s), n, r)
    assert time.perf_counter() - t0 < 1.0
    assert sum(d.pmf.values()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BudgetExceededError):
        exact_distribution(Uniform(s), n + 1, r)


def test_sequence_enumeration_matches_count_oracle():
    # validates the order-free count formula against the order-based definition
    for dist in SMALL_DISTS:
        for n, r in [(4, 1), (5, 2), (6, 3)]:
            by_counts = exact_distribution(dist, n, r)
            by_seq = sequence_overflow_pmf(dist.support_probs(), n, r)
            assert set(by_counts.pmf) == set(by_seq)
            for v in by_counts.pmf:
                assert by_counts.pmf[v] == pytest.approx(by_seq[v], abs=1e-12)


def test_variance_upper_bound_on_oracle_instances():
    # Var V <= n^(r+1) E p^r / r!
    for dist in SMALL_DISTS:
        for n, r in [(4, 1), (6, 2), (6, 3)]:
            d = exact_distribution(dist, n, r)
            bound = n ** (r + 1) * dist.power_moment(r) / math.factorial(r)
            assert d.variance <= bound + 1e-12


def test_nod_check_examples():
    joint, product, holds = nod_check(Uniform(2), 3, 4, 4, 0, 1, 2, 2)
    assert joint == pytest.approx(0.0, abs=1e-15)
    assert product == pytest.approx(0.25, abs=1e-12)
    assert holds

    # x1 = 0 makes the first event certain: joint equals the marginal
    joint, product, holds = nod_check(Custom([2, 1, 1]), 4, 3, 5, 0, 1, 0, 2)
    assert joint == pytest.approx(product, abs=1e-12)
    assert holds

    joint, product, holds = nod_check(Uniform(3), 4, 3, 5, 0, 1, 1, 1)
    assert holds and joint < product


def test_nod_check_validation():
    with pytest.raises(ValueError):
        nod_check(Uniform(3), 4, 3, 5, 1, 1, 1, 1)  # m1 == m2
    with pytest.raises(ValueError):
        nod_check(Uniform(3), 4, 5, 3, 0, 1, 1, 1)  # k > l
    # 20 * 22^2 recurrence cells, well within ORACLE_BUDGET
    joint, product, holds = nod_check(Uniform(3), 20, 21, 21, 0, 1, 1, 1)
    assert holds is True
    assert joint == pytest.approx(0.99939854, abs=1e-8)
    assert product == pytest.approx(0.99939863, abs=1e-8)


@pytest.mark.parametrize("call, args, message", [
    (binomial_tail, (-1, 0.5, 1), "k must be >= 0"),
    (binomial_tail, (3, -0.1, 1), "p must lie in"),
    (binomial_tail, (3, 1.5, 1), "p must lie in"),
    (binomial_tail, (3, math.nan, 1), "p must lie in"),
    (exact._urns, (Uniform(2), 0, 1, 1), "n and r must be >= 1"),
    (exact._urns, (Uniform(2), 3, 0, 1), "n and r must be >= 1"),
    (exact_mean_overflow, (Geometric(0.5), 0, 1), "n and r must be >= 1"),
    (exact_distribution, (Uniform(2), 0, 1), "n and r must be >= 1"),
    (exact_distribution, (Uniform(2), 3, 0), "n and r must be >= 1"),
    (nod_joint_table, (Geometric(0.5), 4, 2, 3, 0, 1), "requires a finite support"),
    (nod_joint_table, (Uniform(3), 4, 2, 3, 0, 3), "urn index outside the support"),
    (nod_joint_table, (Uniform(3), 4, 2, 3, -1, 1), "urn index outside the support"),
], ids=lambda v: getattr(v, "__name__", None))
def test_exact_routes_refuse_inputs_outside_their_domain(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_nod_check_reads_two_urn_masses_only():
    # Uniform's masses are one float seen m times, so m allocates nothing
    tracemalloc.start()
    try:
        _, _, holds = nod_check(Uniform(10**7), 4, 3, 5, 0, 1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds
    assert peak < 2**20


def test_nod_joint_table_matches_sequence_oracle():
    # criterion 4's grid; n enters only the check k <= l <= n+1, so n = 6 covers it
    for dist in [Uniform(2), Uniform(3), Custom([3, 1]), Custom([5, 3, 2])]:
        probs = dist.support_probs()
        for l in range(1, 8):
            for k in range(1, l + 1):
                for m1, m2 in itertools.permutations(range(dist.support_size), 2):
                    got = nod_joint_table(dist, 6, k, l, m1, m2)
                    want = sequence_nod_table(probs, k, l, m1, m2)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_nod_joint_table_budget_counts_cells():
    # (l-1)(l+1)^2 cells: 9,984,384 at l = 215, 10,124,135 at l = 216
    assert nod_joint_table(Uniform(3), 214, 215, 215, 0, 1).shape == (216, 216)
    with pytest.raises(BudgetExceededError, match="10124135 cells"):
        nod_joint_table(Uniform(3), 215, 216, 216, 0, 1)


def test_nod_joint_table_margins_at_the_budget_edge():
    p = 1 / 3
    table = nod_joint_table(Uniform(3), 214, 107, 215, 0, 1)
    x = range(216)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-13)
    np.testing.assert_allclose(table[0], [binomial_tail(214, p, v) for v in x],
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(table[:, 0], [binomial_tail(106, p, v) for v in x],
                               rtol=0, atol=1e-13)


def test_nod_joint_against_independent_bruteforce():
    # redundant slow enumeration, written differently on purpose
    dist = Custom([2, 1, 1])
    probs = dist.support_probs()
    n, k, l, m1, m2, x1, x2 = 4, 3, 5, 0, 2, 1, 2
    joint = 0.0
    for seq in itertools.product(range(3), repeat=l - 1):
        w = math.prod(probs[b] for b in seq)
        if seq[: k - 1].count(m1) >= x1 and seq.count(m2) >= x2:
            joint += w
    got, _, _ = nod_check(dist, n, k, l, m1, m2, x1, x2)
    assert got == pytest.approx(joint, abs=1e-13)
