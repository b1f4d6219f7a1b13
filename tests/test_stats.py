import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr

from urnoverflow import stats
from urnoverflow.asymptotics import poisson_pmf
from urnoverflow.distributions import Uniform
from urnoverflow.montecarlo import ExperimentConfig, run_experiment
from urnoverflow.stats import (EmpiricalSummary, _normal_cdf, _poisson_table,
                               chi_square_poisson, ks_normal, tv_distance_poisson)


def _poisson_histogram(mu, reps, kmax=60):
    # counts proportional to the truncated pmf (largest remainder not needed
    # for the tolerance being tested)
    return {k: round(poisson_pmf(mu, k) * reps) for k in range(kmax)
            if round(poisson_pmf(mu, k) * reps) > 0}


def test_summary_moments_exact():
    s = EmpiricalSummary.from_histogram(Counter([1, 1, 2, 4]))
    assert s.reps == 4
    assert s.mean == pytest.approx(2.0)
    assert s.variance == pytest.approx(2.0)  # unbiased
    assert s.histogram == {1: 2, 2: 1, 4: 1}


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        EmpiricalSummary.from_histogram({})


def test_tv_zero_for_matching_histogram():
    reps = 10**9
    s = EmpiricalSummary.from_histogram(_poisson_histogram(1.5, reps))
    assert tv_distance_poisson(s, 1.5) < 1e-6


def test_tv_point_mass_example():
    s = EmpiricalSummary.from_histogram({0: 10_000})
    expected = 1.0 - math.exp(-1.5)
    assert tv_distance_poisson(s, 1.5) == pytest.approx(expected, abs=1e-9)


def test_tv_small_for_true_poisson_samples():
    rng = np.random.default_rng(17)
    s = EmpiricalSummary.from_histogram(Counter(rng.poisson(2.25, 10**5).tolist()))
    assert tv_distance_poisson(s, 2.25) < 0.01


def test_tv_truncation_feeds_tail_into_discrepancy():
    # empirical mass far beyond the truncated Poisson support
    s = EmpiricalSummary.from_histogram({1000: 1})
    assert tv_distance_poisson(s, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_poisson_fit_pinned_at_fig2_mu():
    # floats of the two fits before they shared one Poisson table
    s = EmpiricalSummary.from_histogram({0: 60, 1: 120, 2: 140, 3: 100, 4: 50, 5: 20,
                                         6: 7, 7: 2, 9: 1})
    assert tv_distance_poisson(s, 2.25) == 0.03223147633797062
    assert chi_square_poisson(s, 2.25) == (4.166048403815211, 6)
    assert tv_distance_poisson(EmpiricalSummary.from_histogram({2: 1}), 2.25) == 0.7332082128277808


def test_tv_and_chi_square_fits_share_one_poisson_table(monkeypatch):
    # a mean no other test fits, so the table is not already built
    mu, terms = 1.8203125, []
    monkeypatch.setattr(stats, "poisson_pmf", lambda m, k: terms.append(k) or poisson_pmf(m, k))
    s = EmpiricalSummary.from_histogram({0: 16, 1: 30, 2: 27, 3: 16, 4: 7, 5: 4})
    tv_distance_poisson(s, mu)
    built = list(terms)
    chi_square_poisson(s, mu)
    assert built and built == list(range(len(built)))    # one call a term
    assert terms == built
    with pytest.raises(ValueError):
        stats._poisson_terms(mu)[0][0] = 0.0    # the shared pmf is read-only


@pytest.mark.parametrize("mu", [2012.0481442879966, 3000.0, 5611.483339505966])
def test_poisson_table_stops_at_its_bound(mu):
    # rounding keeps these pmf sums short of 1 - POISSON_TAIL_TOL
    s = EmpiricalSummary.from_histogram({round(mu): 60})
    observed, theory, tail = _poisson_table(s, mu)
    assert observed.size == theory.size <= math.ceil(mu + 12.0 * math.sqrt(mu) + 40.0) + 1
    assert 0.0 <= tail < 1e-10
    assert 0.0 <= tv_distance_poisson(s, mu) <= 1.0 + 1e-12
    statistic, dof = chi_square_poisson(s, mu)
    assert statistic > 0.0 and dof >= 1


def test_poisson_table_refuses_more_than_1e7_terms():
    s = EmpiricalSummary.from_histogram({0: 60})
    t0 = time.perf_counter()
    for fit in (tv_distance_poisson, chi_square_poisson):
        with pytest.raises(ValueError, match="mu = 5000000000.0"):
            fit(s, 5e9)
    assert time.perf_counter() - t0 < 1.0


def test_chi_square_near_zero_for_proportional_histogram():
    s = EmpiricalSummary.from_histogram(_poisson_histogram(1.5, 10**7))
    statistic, dof = chi_square_poisson(s, 1.5)
    assert dof >= 2
    assert statistic < 1.0


def test_chi_square_gross_misfit():
    s = EmpiricalSummary.from_histogram({5: 10_000})
    statistic, _ = chi_square_poisson(s, 1.5)
    assert statistic > 1e3


def test_chi_square_calibration():
    # statistic should exceed the 99.9% quantile rarely under the null
    rng = np.random.default_rng(5)
    exceed = 0
    for _ in range(200):
        s = EmpiricalSummary.from_histogram(Counter(rng.poisson(1.5, 10**4).tolist()))
        statistic, dof = chi_square_poisson(s, 1.5)
        if statistic > sps.chi2.isf(0.001, min(dof, 15)):
            exceed += 1
    assert exceed <= 3


def test_chi_square_requires_enough_reps():
    with pytest.raises(ValueError):
        chi_square_poisson(EmpiricalSummary.from_histogram(Counter([1] * 10)), 1.0)


def test_ks_quantile_construction():
    from scipy.stats import norm
    n = 10**4
    samples = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    assert ks_normal(samples, np.ones(n)) < 0.001


def test_ks_normal_draws_band():
    rng = np.random.default_rng(8)
    # 1.63/sqrt(N) is the 1% critical value; a single run sits below it whp
    assert ks_normal(rng.standard_normal(10**4), np.ones(10**4)) < 0.022


def test_ks_constant_samples():
    assert ks_normal(np.zeros(500), np.ones(500)) >= 0.5


def test_ks_invariant_under_duplication():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(400)
    assert ks_normal(x, np.ones(400)) == pytest.approx(
        ks_normal(np.concatenate([x, x]), np.ones(800)), abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_ks_normal_reads_any_form_of_one_histogram(seed):
    # unsorted and repeated values and zero counts give the statistic of the
    # sorted distinct values that have positive counts
    rng = np.random.default_rng(seed)
    values = (rng.poisson(3.0, 40) - 3.0) / math.sqrt(3.0)
    counts = rng.integers(0, 50, 40)
    counts[0] = 1
    distinct, where = np.unique(values, return_inverse=True)
    merged = np.bincount(where, weights=counts)
    kept = merged > 0
    assert ks_normal(values, counts) == ks_normal(distinct[kept], merged[kept])


@pytest.mark.parametrize("values, counts, message", [
    ([0.0, 1.0], [1], "one shape"),
    ([[0.0]], [[1]], "1-d"),
    ([0.0, 1.0], [2, -1], ">= 0"),
    ([0.0], [0], "at least one sample"),
    ([], [], "at least one sample"),
])
def test_ks_normal_refuses_bad_histograms(values, counts, message):
    with pytest.raises(ValueError, match=message):
        ks_normal(values, counts)


def test_normal_cdf_matches_ndtr():
    x = np.linspace(-40.0, 40.0, 200_001)
    assert np.abs(_normal_cdf(x) - ndtr(x)).max() <= 2.3e-16


def test_ks_normal_matches_ndtr_statistic_on_fig3():
    cfg = ExperimentConfig(dist=Uniform(25_118), n=10_000, r=2, reps=1_000, seed=20260823)
    s = run_experiment(cfg)["V"]
    values = (np.fromiter(s.histogram, dtype=float) - s.mean) / math.sqrt(s.variance)
    counts = np.fromiter(s.histogram.values(), dtype=int)
    # the reference expands the histogram into one sample per replication
    x = np.sort(np.repeat(values, counts))
    cdf, i = ndtr(x), np.arange(1, x.size + 1)
    reference = max((i / x.size - cdf).max(), (cdf - (i - 1) / x.size).max())
    assert ks_normal(values, counts) == pytest.approx(reference, abs=1e-15)
