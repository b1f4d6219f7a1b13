"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy figure-scale
experiments are shared through session fixtures.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import urnoverflow
from urnoverflow.allocation import streaming_overflow
from urnoverflow.asymptotics import regime_report
from urnoverflow.distributions import Custom, Geometric, Uniform
from urnoverflow.exact import (binomial_tail, exact_distribution,
                               exact_mean_overflow, exact_mean_via_counts,
                               nod_joint_table)
from urnoverflow.montecarlo import ExperimentConfig, run_experiment
from urnoverflow.stats import (EmpiricalSummary, chi_square_poisson, ks_normal,
                               tv_distance_poisson)

from oracles import batch_overflows, count_route_stats, sequence_overflow_pmf, tail_bound

SMALL_GRID_DISTS = [Uniform(1), Uniform(2), Uniform(3), Custom([3, 1]), Custom([5, 3, 2])]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _lattice_ks_normal(summary):
    """KS distance between an integer statistic's empirical CDF and the
    moment-matched normal discretised with a continuity correction:
    sup over k in [min-1, max] of |F(k) - Phi((k + 1/2 - mean) / sd)|.

    The continuous ``ks_normal`` cannot fall below half the largest atom on
    integer data; this comparison has no such floor."""
    lo, hi = min(summary.histogram), max(summary.histogram)
    k = np.arange(lo - 1, hi + 1)
    counts = np.array([summary.histogram.get(int(x), 0) for x in k])
    ecdf = np.cumsum(counts) / summary.reps
    cdf = sps.norm.cdf((k + 0.5 - summary.mean) / math.sqrt(summary.variance))
    return float(np.abs(ecdf - cdf).max())


def _continuous_ks_normal(summary):
    """``ks_normal`` on the standardized histogram, and its half-atom floor."""
    values = np.fromiter(summary.histogram, dtype=float)
    ks = ks_normal((values - summary.mean) / math.sqrt(summary.variance),
                   list(summary.histogram.values()))
    return ks, 0.5 * max(summary.histogram.values()) / summary.reps


@pytest.fixture(scope="session")
def fig3_run():
    # criterion 8 configuration, shared by criteria 5, 8 and 11
    cfg = ExperimentConfig(dist=Uniform(25_118), n=10_000, r=2, reps=10_000, seed=20260823)
    t0 = time.time()
    summary = run_experiment(cfg)["V"]
    return summary, time.time() - t0


def test_criterion_01_exact_identities():
    t0 = time.time()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        r = int(rng.integers(1, 6))
        s = int(rng.integers(1, 21))
        dist = Uniform(s) if rng.random() < 0.5 else Custom(rng.random(s) + 0.05)
        balls = dist.sample(rng, n)
        v = streaming_overflow(balls, r)
        by_counts, L, M = count_route_stats(balls, r)
        assert v == by_counts
        v_lo = n if r == 1 else streaming_overflow(balls, r - 1)
        v_hi = streaming_overflow(balls, r + 1)
        assert v_lo - v == L and v_lo - 2 * v + v_hi == M
    elapsed = time.time() - t0
    report(1, "exact-identity-suite", elapsed < 5.0, f"runtime {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst_pmf_gap = worst_mean_gap = worst_tv = 0.0
    for dist, n, r in itertools.product(SMALL_GRID_DISTS, range(1, 7), range(1, 4)):
        by_counts = exact_distribution(dist, n, r)
        by_seq = sequence_overflow_pmf(dist.support_probs(), n, r)
        for v in set(by_counts.pmf) | set(by_seq):
            worst_pmf_gap = max(worst_pmf_gap, abs(
                by_counts.pmf.get(v, 0.0) - by_seq.get(v, 0.0)))
        m1 = exact_mean_overflow(dist, n, r)
        m2 = exact_mean_via_counts(dist, n, r)
        worst_mean_gap = max(worst_mean_gap, abs(m1 - m2),
                             abs(m1 - by_counts.mean))
        vs = batch_overflows(dist, n, r, 10**5, rng)
        vals, cnts = np.unique(vs, return_counts=True)
        emp = dict(zip(vals.tolist(), (cnts / 10**5).tolist()))
        tv = 0.5 * sum(abs(emp.get(v, 0.0) - by_counts.pmf.get(v, 0.0))
                       for v in set(emp) | set(by_counts.pmf))
        worst_tv = max(worst_tv, tv)
    elapsed = time.time() - t0
    ok = worst_pmf_gap <= 1e-10 and worst_mean_gap <= 1e-10 and worst_tv <= 0.02
    report(2, "oracle-equivalence", ok and elapsed < 30.0,
           f"pmf gap {worst_pmf_gap:.2e}, mean gap {worst_mean_gap:.2e}, "
           f"max TV {worst_tv:.4f}, runtime {elapsed:.1f}s")


def test_criterion_03_binomial_tail_bound():
    violations = 0
    ps = np.linspace(0.005, 0.995, 50)
    for k in range(1, 61):
        for r in range(1, k + 1):
            for p in ps:
                if binomial_tail(k, float(p), r) > tail_bound(k, float(p), r) + 1e-12:
                    violations += 1
    report(3, "lemma-binomial-tail-bound", violations == 0,
           f"{violations} violations over the k<=60 grid")


def test_criterion_04_nod_sweep():
    t0 = time.time()
    dists = [Uniform(2), Uniform(3), Custom([3, 1]), Custom([5, 3, 2])]
    checked = violations = 0
    for dist in dists:
        s = dist.support_size
        probs = dist.support_probs()
        for n in range(1, 7):
            for k in range(1, n + 2):
                for l in range(k, n + 2):
                    for m1, m2 in itertools.permutations(range(s), 2):
                        joint = nod_joint_table(dist, n, k, l, m1, m2)
                        marg1 = np.array([binomial_tail(k - 1, float(probs[m1]), x)
                                          for x in range(joint.shape[0])])
                        marg2 = np.array([binomial_tail(l - 1, float(probs[m2]), x)
                                          for x in range(joint.shape[1])])
                        product = np.outer(marg1, marg2)
                        bad = joint > product + 1e-12
                        violations += int(bad.sum())
                        checked += bad.size
    elapsed = time.time() - t0
    report(4, "nod-exhaustive-sweep", violations == 0 and elapsed < 60.0,
           f"{checked} orthant inequalities, {violations} violations, "
           f"runtime {elapsed:.1f}s")


def test_criterion_05_variance_upper_bound(fig3_run):
    fig3, _ = fig3_run
    worst_slack = math.inf
    for dist, n, r in itertools.product(SMALL_GRID_DISTS, range(1, 7), range(1, 4)):
        d = exact_distribution(dist, n, r)
        bound = n ** (r + 1) * dist.power_moment(r) / math.factorial(r)
        worst_slack = min(worst_slack, bound - d.variance)
    ok_small = worst_slack >= -1e-12
    # figure-3 scale: empirical variance below the bound by >= 3 SE
    n, r, m = 10_000, 2, 25_118
    bound = n ** (r + 1) * Uniform(m).power_moment(r) / math.factorial(r)
    var = fig3.variance
    se_var = var * math.sqrt(2.0 / (fig3.reps - 1))
    ok_big = var <= bound - 3.0 * se_var
    report(5, "finite-n-variance-bound", ok_small and ok_big,
           f"min oracle slack {worst_slack:.2e}; fig3 var {var:.1f} vs bound "
           f"{bound:.1f} (3*SE {3 * se_var:.1f})")


def test_criterion_06_poisson_uniform():
    t0 = time.time()
    cfg = ExperimentConfig(dist=Uniform(333_333), n=10_000, r=2, reps=10_000, seed=6)
    v = run_experiment(cfg)["V"]
    mu = regime_report(cfg.dist, cfg.n, cfg.r).mu
    tv = tv_distance_poisson(v, 1.5)
    statistic, dof = chi_square_poisson(v, 1.5)
    quantile = sps.chi2.ppf(0.999, dof)
    elapsed = time.time() - t0
    ok = tv <= 0.02 and statistic < quantile and elapsed < 60.0
    report(6, "poisson-regime-uniform", ok,
           f"mu {mu:.4f}, TV {tv:.4f} (<=0.02), chi2 {statistic:.2f} < "
           f"{quantile:.2f} (dof {dof}), runtime {elapsed:.1f}s")


# Exact finite-n mean E V_n of the criterion-7 instance, summed urn by urn
# over the geometric support with scipy.stats.binom.sf (the route of
# benchmark/reference_means.py, independent of urnoverflow.exact).  Chen-Stein
# bounds compare V_n with Pois(E V_n); the n -> oo intensity 2.25 alone is
# TV 0.036 away from it.
CRITERION_07_MEAN = 2.115158313423943


def test_criterion_07_poisson_geometric():
    t0 = time.time()
    n = 100_000
    cfg = ExperimentConfig(dist=Geometric(6.0 * n ** (-4.0 / 3.0)), n=n, r=3,
                           reps=10_000, seed=7)
    v = run_experiment(cfg)["V"]
    mu_limit = regime_report(cfg.dist, cfg.n, cfg.r).mu
    tv = tv_distance_poisson(v, CRITERION_07_MEAN)
    tv_limit = tv_distance_poisson(v, mu_limit)
    elapsed = time.time() - t0
    ok = (tv <= 0.03 and abs(v.mean - CRITERION_07_MEAN) <= 0.15
          and elapsed < 120.0)
    report(7, "poisson-regime-geometric", ok,
           f"TV {tv:.4f} vs Pois({CRITERION_07_MEAN:.4f}) (<=0.03), "
           f"mean {v.mean:.3f} ({CRITERION_07_MEAN:.3f}+-0.15), "
           f"TV {tv_limit:.4f} vs limit Pois({mu_limit:.4f}) (not gated), "
           f"runtime {elapsed:.1f}s")


def test_criterion_08_normal_uniform(fig3_run):
    v, elapsed = fig3_run
    sd = math.sqrt(v.variance)
    ks = _lattice_ks_normal(v)
    ok = (abs(v.mean - 217.2) <= 2.0 and abs(sd - 14.9) <= 1.0
          and ks <= 0.03 and elapsed < 120.0)
    report(8, "normal-regime-uniform", ok,
           f"mean {v.mean:.2f} (217.2+-2.0), sd {sd:.2f} (14.9+-1.0), "
           f"lattice KS {ks:.4f} (<=0.03), runtime {elapsed:.1f}s")


def test_criterion_09_normal_geometric():
    t0 = time.time()
    cfg = ExperimentConfig(dist=Geometric(1e-4), n=10_000, r=4, reps=10_000, seed=9)
    v = run_experiment(cfg)["V"]
    sd = math.sqrt(v.variance)
    ks = _lattice_ks_normal(v)
    ks_continuous, floor = _continuous_ks_normal(v)
    elapsed = time.time() - t0
    ok = (abs(v.mean - 9.74) <= 0.3 and abs(sd - 3.57) <= 0.3
          and ks <= 0.04 and elapsed < 60.0)
    report(9, "normal-regime-geometric", ok,
           f"mean {v.mean:.3f} (9.74+-0.3), sd {sd:.3f} (3.57+-0.3), "
           f"lattice KS {ks:.4f} (<=0.04), continuous KS {ks_continuous:.4f} "
           f"(half-atom floor {floor:.4f}, not gated), runtime {elapsed:.1f}s")


def test_criterion_10_full_container_poisson_laws():
    t0 = time.time()
    n = 10_000
    cfg = ExperimentConfig(dist=Uniform(n * n // 2), n=n, r=2, reps=10_000, seed=10)
    out = run_experiment(cfg)
    tv_l = tv_distance_poisson(out["L"], 1.0)
    tv_m = tv_distance_poisson(out["M"], 1.0)
    # L != M exactly when some urn holds more than r balls, i.e. V > 0
    p_diff = 1.0 - out["V"].histogram.get(0, 0) / out["V"].reps
    elapsed = time.time() - t0
    ok = tv_l <= 0.03 and tv_m <= 0.03 and p_diff <= 0.02 and elapsed < 60.0
    report(10, "full-container-poisson-laws", ok,
           f"TV(L) {tv_l:.4f}, TV(M) {tv_m:.4f} (<=0.03), P(L!=M) {p_diff:.4f} "
           f"(<=0.02), runtime {elapsed:.1f}s")


def test_criterion_11_asymptotic_variance_bracket(fig3_run):
    fig3, _ = fig3_run
    n, r, m = 10_000, 2, 25_118
    dist = Uniform(m)
    scaled = n ** (r + 1) * dist.power_moment(r)
    lam = n / m
    ratio = fig3.variance / scaled
    lo = 0.5 * math.exp(-2.0 * lam) / math.factorial(r + 1)
    hi = 1.0 / math.factorial(r)
    ok = lo <= ratio <= hi
    report(11, "asymptotic-variance-bracket", ok,
           f"ratio {ratio:.4f} in [{lo:.4f}, {hi:.4f}]")


def test_criterion_12_cli_thread_determinism():
    args = [sys.executable, "-m", "urnoverflow.cli", "simulate",
            "--dist", "uniform:m=25118", "--balls", "10000", "--capacity", "2",
            "--reps", "10000", "--seed", "20260823", "--collect", "v",
            "--no-timing"]
    src = str(Path(urnoverflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    outputs = []
    for threads in (1, 4, 8):
        proc = subprocess.run(args + ["--threads", str(threads)],
                              capture_output=True, text=True, check=True, env=env)
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])  # still valid JSON
    report(12, "cli-thread-determinism", ok,
           f"{len(outputs[0])} bytes, identical across 1/4/8 threads: {ok}")
