import json
import math

import numpy as np
import pytest

from oracles import decimal_pmf, decimal_stirlerr
from urnoverflow.asymptotics import RegimeReport, _pmf_terms, _stirlerr, poisson_pmf, regime_report
from urnoverflow.distributions import Custom, Geometric, Uniform


def test_uniform_poisson_candidate():
    rep = regime_report(Uniform(333_333), 10_000, 2)
    assert rep.mu == pytest.approx(1.5, abs=0.01)
    assert rep.classification == "PoissonCandidate"


def test_geometric_mu_limit():
    # p = 6 n^(-4/3), r = 3: mu -> 6^3 / (4 * 4!) = 2.25
    for n in (10**5, 10**6, 10**7):
        rep = regime_report(Geometric(6.0 * n ** (-4.0 / 3.0)), n, 3)
        assert rep.mu == pytest.approx(2.25, rel=0.01)
    assert rep.mu == pytest.approx(2.25, rel=1e-3)


def test_uniform_normal_candidate():
    rep = regime_report(Uniform(1000), 1000, 1)
    assert rep.scaled_moment == pytest.approx(1000.0)
    assert rep.classification == "NormalCandidate"


def test_indeterminate_when_np_star_is_one():
    rep = regime_report(Uniform(100), 100, 1)
    assert rep.n_p_star == pytest.approx(1.0)
    assert rep.classification == "Indeterminate"


def test_bracket_ordering():
    for dist, n, r in [(Uniform(50), 200, 2), (Geometric(0.01), 500, 3),
                       (Custom([3, 2, 1]), 30, 1)]:
        rep = regime_report(dist, n, r)
        assert rep.mu >= 0.0
        assert rep.var_lower_asymptotic <= rep.var_upper + 1e-12


def test_classification_invariant_under_custom_copy():
    for m, n, r in [(333_333, 10_000, 2), (100, 100, 1), (40, 2000, 2)]:
        a = regime_report(Uniform(m), n, r)
        if m <= 10**6:
            b = regime_report(Custom(np.full(m, 1.0)), n, r)
            assert a.classification == b.classification
            assert a.scaled_moment == pytest.approx(b.scaled_moment, rel=1e-9)


def test_report_serializes_with_exact_field_names():
    rep = regime_report(Uniform(10), 10, 1)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert set(payload) == {"n_p_star", "scaled_moment", "mu", "var_upper",
                            "var_lower_asymptotic", "classification"}


def test_poisson_pmf_examples():
    assert poisson_pmf(1.5, 0) == pytest.approx(math.exp(-1.5), abs=1e-12)
    assert poisson_pmf(2.25, 2) == pytest.approx(math.exp(-2.25) * 2.25**2 / 2, abs=1e-12)
    total = sum(poisson_pmf(3.7, k) for k in range(200))
    assert total == pytest.approx(1.0, abs=1e-12)
    # Pois(0) is the point mass at 0, the law of a statistic that is always 0
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(0.0, 1) == 0.0
    assert poisson_pmf(0.0, -1) == 0.0


@pytest.mark.parametrize("mu", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
def test_poisson_pmf_refuses_a_mean_that_is_no_poisson_law(mu):
    with pytest.raises(ValueError, match="mu must be finite and >= 0"):
        poisson_pmf(mu, 0)


@pytest.mark.parametrize("mu, k", [(1.5, -1), (2.25, -3), (1e6, -1)])
def test_poisson_pmf_is_zero_below_its_support(mu, k):
    assert poisson_pmf(mu, k) == 0.0


def _assert_terms_match_decimal(got, want, k, mean, sd):
    # 1e-13 relative over the mean +- 12 sd, 1e-14 within one sd of it
    rel = np.abs(got / np.array(want) - 1.0)
    assert rel.max() <= 1e-13
    assert rel[np.abs(k - mean) <= sd].max() <= 1e-14


@pytest.mark.parametrize("mu", [0.5, 2.25, 37.5, 1000.0, 5611.48, 1e5, 1e6])
def test_poisson_terms_match_the_decimal_oracle(mu):
    # exp(k log mu - mu - lgamma(k+1)) is up to 2.7e-9 off on this grid
    sd = math.sqrt(mu)
    lo, hi = max(0, math.ceil(mu - 12.0 * sd)), math.floor(mu + 12.0 * sd)
    k = np.arange(lo, hi + 1)
    got = _pmf_terms(k, mu=mu)
    _assert_terms_match_decimal(got, decimal_pmf(lo, hi, mu=mu), k, mu, sd)
    mode = math.floor(mu) - lo
    assert poisson_pmf(mu, int(k[mode])) == got[mode]


@pytest.mark.parametrize("n, p", [
    (12, 0.3), (40, 0.25), (7, 0.999), (200, 0.1), (1000, 0.0007), (10_000, 1e-4),
    (800, 0.9375), (1000, 0.75), (1500, 0.5), (2000, 1 / 3), (3000, 0.25),   # n p up to 750
    (100_000, 0.0075),
])
def test_binomial_terms_match_the_decimal_oracle(n, p):
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.ceil(mean - 12.0 * sd)), min(n, math.floor(mean + 12.0 * sd))
    k = np.arange(lo, hi + 1)
    _assert_terms_match_decimal(_pmf_terms(k, n=n, p=p), decimal_pmf(lo, hi, n=n, p=p),
                                k, mean, sd)


def test_stirlerr_on_both_sides_of_16():
    # the table below 16 and the series from 16 up; an error in the exponent
    # is the same relative error in every pmf term
    k = np.arange(1.0, 40.0)
    want = [decimal_stirlerr(j) for j in range(1, 40)]
    assert np.abs(_stirlerr(k) - want).max() <= 5e-16


@pytest.mark.parametrize("n", [0, 1, 12])
def test_binomial_terms_at_p_0_and_1_are_point_masses(n):
    k = np.arange(n + 1)
    assert _pmf_terms(k, n=n, p=0.0).tolist() == [1.0] + [0.0] * n
    assert _pmf_terms(k, n=n, p=1.0).tolist() == [0.0] * n + [1.0]
    assert _pmf_terms(k, mu=0.0).tolist() == [1.0] + [0.0] * n


def test_geometric_scaled_moment_examples():
    def scaled(p, n, r):
        return regime_report(Geometric(p), n, r).scaled_moment

    assert scaled(0.5, 2, 1) == pytest.approx(4 / 3, abs=1e-12)
    # p = n^(-(r+1)/r): limit 1/(r+1)
    assert scaled(10**-9, 10**6, 2) == pytest.approx(1 / 3, rel=1e-3)
    # p -> 1 collapses to a single atom: n^(r+1)
    assert scaled(1 - 1e-12, 7, 2) == pytest.approx(7**3, rel=1e-9)


def test_uniform_scaled_moment_closed_form():
    for m, n, r in [(10, 100, 1), (333, 50, 2), (7, 9, 3)]:
        rep = regime_report(Uniform(m), n, r)
        assert rep.scaled_moment == pytest.approx(n ** (r + 1) / m**r, rel=1e-12)
