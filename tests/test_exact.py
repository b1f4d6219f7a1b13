import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from oracles import (binomial_tail_rational, exact_mean_rational, loop_mean_overflow,
                     loop_overflow_pmf, sequence_overflow_pmf)
from urnoverflow import exact
from urnoverflow.distributions import Custom, Geometric, Uniform
from urnoverflow.exact import (BudgetExceededError, binomial_tail,
                               exact_distribution, exact_mean_overflow,
                               exact_mean_via_counts, nod_check, tail_bound)

SMALL_DISTS = [Uniform(1), Uniform(2), Uniform(3), Custom([3, 1]), Custom([5, 3, 2])]


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
@pytest.mark.parametrize("n,r", [(2, 1), (5, 2), (8, 3), (12, 1)])
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
    # a tiny block size splits the urns of both means, and the count vectors
    # of the full law, into many blocks
    means = (exact_mean_overflow(dist, n, r), exact_mean_via_counts(dist, n, r))
    pmf = exact_distribution(dist, n, r).pmf if dist.finite_support else None
    monkeypatch.setattr(exact, "GRID_CELLS", 7)
    assert exact_mean_overflow(dist, n, r) == pytest.approx(means[0], rel=1e-13)
    assert exact_mean_via_counts(dist, n, r) == pytest.approx(means[1], rel=1e-13)
    if pmf is not None:
        blocked = exact_distribution(dist, n, r).pmf
        assert set(blocked) == set(pmf)
        for v in pmf:
            assert blocked[v] == pytest.approx(pmf[v], rel=0.0, abs=1e-14)


def test_counts_route_where_q_to_the_n_underflows():
    # n p = 1000, so P(N = 0) = 2^-2000 underflows and the pmf rows go in logs
    want = loop_mean_overflow([(0.5, 2)], 2000, 900)
    assert exact_mean_via_counts(Uniform(2), 2000, 900) == pytest.approx(want, rel=1e-12)
    assert exact_mean_overflow(Uniform(2), 2000, 900) == pytest.approx(want, rel=1e-14)


def test_mean_budget_raises():
    # n*support = 1e11 exceeds MEAN_BUDGET = 1e9
    with pytest.raises(BudgetExceededError):
        exact_mean_overflow(Uniform(10**7), 10**4, 2)


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
        for n, r in [(3, 1), (5, 2), (6, 3)]:
            d = exact_distribution(dist, n, r)
            assert sum(d.pmf.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(0 <= v <= max(n - r, 0) for v in d.pmf)
            assert d.mean == pytest.approx(exact_mean_overflow(dist, n, r), abs=1e-10)


def test_exact_distribution_budget():
    # C(149, 49) count compositions exceed ORACLE_BUDGET = 1e7
    with pytest.raises(BudgetExceededError):
        exact_distribution(Uniform(50), 100, 2)


@pytest.mark.parametrize("m,n", [(100_000, 1), (5, 100), (3, 3000)])
def test_exact_distribution_budget_counts_cells(m, n):
    # few compositions, each of m cells: C(n+m-1, m-1) * m exceeds ORACLE_BUDGET
    assert math.comb(n + m - 1, m - 1) <= exact.ORACLE_BUDGET
    with pytest.raises(BudgetExceededError, match="cells"):
        exact_distribution(Uniform(m), n, 1)


def test_exact_distribution_admits_the_budget_in_cells(monkeypatch):
    # Uniform(6), n = 12: C(17, 5) = 6,188 compositions of 6 cells
    monkeypatch.setattr(exact, "ORACLE_BUDGET", 6_188 * 6)
    assert exact_distribution(Uniform(6), 12, 2).mean == pytest.approx(2.9609356863138396,
                                                                        rel=1e-12)
    monkeypatch.setattr(exact, "ORACLE_BUDGET", 6_188 * 6 - 1)
    with pytest.raises(BudgetExceededError):
        exact_distribution(Uniform(6), 12, 2)


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
    with pytest.raises(BudgetExceededError):
        nod_check(Uniform(3), 20, 21, 21, 0, 1, 1, 1)   # 3^20 sequences > ORACLE_BUDGET


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
