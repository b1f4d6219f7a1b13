import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr

from urnoverflow import stats
from urnoverflow.asymptotics import _pmf_terms, poisson_pmf
from urnoverflow.distributions import Uniform
from urnoverflow.montecarlo import ExperimentConfig, run_experiment
from urnoverflow.stats import (EmpiricalSummary, _normal_cdf, _poisson_table,
                               chi_square_poisson, ks_normal, tv_distance_poisson)

from oracles import poisson_table_by_term, pooled_chi_square


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
    # floats of the two fits on Loader's terms; on the table's terms from
    # oracles.decimal_pmf the same code gives 0.03223147633797069,
    # (4.166048403815215, 6) and 0.7332082128277808, within 2e-14 relative
    s = EmpiricalSummary.from_histogram({0: 60, 1: 120, 2: 140, 3: 100, 4: 50, 5: 20,
                                         6: 7, 7: 2, 9: 1})
    assert tv_distance_poisson(s, 2.25) == 0.03223147633797049
    assert chi_square_poisson(s, 2.25) == (4.166048403815138, 6)
    assert tv_distance_poisson(EmpiricalSummary.from_histogram({2: 1}), 2.25) == 0.7332082128277807


def test_tv_and_chi_square_fits_share_one_poisson_table(monkeypatch):
    # a mean no other test fits, so the table is not already built
    mu, calls = 1.8203125, []
    monkeypatch.setattr(stats, "_pmf_terms",
                        lambda k, mu: calls.append(k.tolist()) or _pmf_terms(k, mu=mu))
    s = EmpiricalSummary.from_histogram({0: 16, 1: 30, 2: 27, 3: 16, 4: 7, 5: 4})
    tv_distance_poisson(s, mu)
    assert len(calls) == 1 and calls[0] == list(range(len(calls[0])))   # one call, all terms
    chi_square_poisson(s, mu)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        stats._poisson_terms(mu)[1][0] = 0.0    # the shared pmf is read-only


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


@pytest.mark.parametrize("mu", [1e-9, 2.25, 5611.483339505966, 1e5, 1e6])
def test_poisson_table_is_the_term_by_term_table(mu):
    # the table starts at lo: the terms below it are zeros and not computed
    want, want_cum = _dense_poisson_table(mu)
    lo, pmf, cum = stats._poisson_terms(mu)
    assert (want[:lo] == 0.0).all()
    assert pmf.dtype == want.dtype and pmf.tobytes() == want[lo:].tobytes()
    assert cum == want_cum


def _dense_poisson_table(mu):
    """The term-by-term Pois(mu) table from k = 0 and its summed mass."""
    bound = math.ceil(mu + 12.0 * math.sqrt(mu) + 40.0)
    return poisson_table_by_term(_pmf_terms(np.arange(bound + 1), mu=mu),
                                 stats.POISSON_TAIL_TOL)


def _dense_fits(summary, mu):
    """(TV, (chi-square, dof)) on the table from k = 0, the observed counts
    padded from 0 and a negative value counted at 0."""
    pmf, cum = _dense_poisson_table(mu)
    top = max(max(summary.histogram), pmf.size - 1)
    observed = np.zeros(top + 1)
    for k, v in summary.histogram.items():
        observed[max(k, 0)] += v
    theory, tail = np.pad(pmf, (0, top + 1 - pmf.size)), max(1.0 - cum, 0.0)
    tv = min(0.5 * (np.abs(observed / summary.reps - theory).sum() + tail), 1.0)
    return tv, pooled_chi_square(np.append(observed, 0.0),
                                 np.append(theory * summary.reps, tail * summary.reps))


@pytest.mark.parametrize("mu", [1e-9, 2.25, 1600.5, 5611.483339505966, 1e5, 1e6])
def test_windowed_fits_are_the_fits_from_zero(mu):
    # counts left of lo (a negative one among them) and right of the table's end
    lo, pmf, _ = stats._poisson_terms(mu)
    assert lo == 0 or pmf[0] == 0.0     # the cell below-lo values join holds no mass
    s = EmpiricalSummary.from_histogram(
        _poisson_sample(mu, 200, 4) + Counter({-2: 1, lo - 1: 2, lo + pmf.size + 3: 1}))
    tv, (statistic, dof) = _dense_fits(s, mu)
    assert abs(tv_distance_poisson(s, mu) - tv) <= 4 * np.spacing(tv)
    if dof < 1:
        with pytest.raises(ValueError, match="fewer than 2 cells"):
            chi_square_poisson(s, mu)
    else:
        assert chi_square_poisson(s, mu) == (statistic, dof)


def _poisson_sample(mu, reps, seed):
    return Counter(np.random.default_rng(seed).poisson(mu, reps).tolist())


@pytest.mark.parametrize("mu, histogram", [
    pytest.param(0.5, _poisson_sample(0.5, 200, 1), id="0.5"),
    pytest.param(2.25, {0: 60, 1: 120, 2: 140, 3: 100, 4: 50, 5: 20, 6: 7, 7: 2, 9: 1},
                 id="2.25"),
    # a count far left of the table's first nonzero term
    pytest.param(5611.483339505966,
                 _poisson_sample(5611.483339505966, 80, 2) + Counter({100: 1}), id="5611"),
    pytest.param(1e6, _poisson_sample(1e6, 60, 3), id="1e6"),
])
def test_chi_square_is_the_full_pooling_loop(mu, histogram):
    s = EmpiricalSummary.from_histogram(histogram)
    observed, theory, tail = _poisson_table(s, mu)
    want = pooled_chi_square(np.append(observed, 0.0),
                             np.append(theory * s.reps, tail * s.reps))
    assert chi_square_poisson(s, mu) == want


def test_fits_refuse_what_they_cannot_fit():
    with pytest.raises(ValueError, match="need at least one replication"):
        tv_distance_poisson(EmpiricalSummary({}, 0, 0.0, 0.0), 2.25)
    # all of Pois(1e-6)'s expected count, 60 (1 - 6e-5), lies in one cell
    with pytest.raises(ValueError, match="fewer than 2 cells after pooling"):
        chi_square_poisson(EmpiricalSummary.from_histogram({0: 60}), 1e-6)


def test_tv_distance_is_at_most_one():
    # 50 trials all at V = 9,950 against Pois(5e5): the summed terms round
    # past 1, to 1 + 1.6e-15
    s = EmpiricalSummary.from_histogram({9950: 50})
    assert tv_distance_poisson(s, 5e5) == 1.0


def test_poisson_table_refuses_a_bound_of_1e7_or_more():
    s = EmpiricalSummary.from_histogram({0: 60})
    t0 = time.perf_counter()
    for fit in (tv_distance_poisson, chi_square_poisson):
        # its bound is ceil(mu + 12 sqrt(mu) + 40)
        with pytest.raises(ValueError,
                           match=r"mu = 5000000000.0 would run to k = 5000848569 >= 10\^7"):
            fit(s, 5e9)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("fit", [tv_distance_poisson, chi_square_poisson])
def test_fits_refuse_a_mean_that_is_no_poisson_mean(fit, mu):
    # refused as poisson_pmf refuses it, not by math.sqrt, ceil or float overflow
    with pytest.raises(ValueError, match=f"^mu must be finite and >= 0, got {mu!r}$"):
        fit(EmpiricalSummary.from_histogram({0: 30, 1: 30}), mu)


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
    ([0.0, 1.0], [1, 1.5], "integers"),
    ([0.0, 1.0], [1, float("nan")], "integers"),
    ([float("nan")], [1], "finite"),
    ([0.0, float("inf")], [1, 1], "finite"),
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
