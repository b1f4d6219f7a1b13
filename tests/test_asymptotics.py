import json
import math

import numpy as np
import pytest

from urnoverflow.asymptotics import RegimeReport, poisson_pmf, regime_report
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
