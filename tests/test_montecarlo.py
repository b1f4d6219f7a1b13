import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnoverflow import allocation, montecarlo
from urnoverflow.allocation import overflow_stats
from urnoverflow.distributions import Custom, Geometric, Uniform
from urnoverflow.exact import exact_distribution
from urnoverflow.montecarlo import (ExperimentConfig, _trial_stats, run_experiment,
                                    trial_rng)

from oracles import batch_overflows, seedsequence_rng


def test_deterministic_single_urn():
    cfg = ExperimentConfig(dist=Uniform(1), n=5, r=2, reps=100, seed=1)
    out = run_experiment(cfg)
    assert out["V"].histogram == {3: 100}
    assert out["V"].mean == 3.0
    assert out["V"].variance == 0.0
    assert out["L"].histogram == {1: 100}
    assert out["M"].histogram == {0: 100}


def test_matches_exact_distribution():
    cfg = ExperimentConfig(dist=Uniform(2), n=4, r=1, reps=10**5, seed=99)
    hist = run_experiment(cfg)["V"].histogram
    oracle = exact_distribution(Uniform(2), 4, 1).pmf
    for v, p in oracle.items():
        assert hist.get(v, 0) / 10**5 == pytest.approx(p, abs=0.01)


@pytest.mark.parametrize("threads", [2, 4, 8])
def test_thread_count_invariance(threads):
    base = ExperimentConfig(dist=Custom([3, 2, 1]), n=30, r=2, reps=4001, seed=7,
                            identity_checks=True)
    multi = ExperimentConfig(dist=Custom([3, 2, 1]), n=30, r=2, reps=4001, seed=7,
                             identity_checks=True, threads=threads)
    assert run_experiment(base) == run_experiment(multi)


@pytest.mark.parametrize("threads,reps,workers", [(1, 50, 1), (8, 50, 2), (64, 3, 2),
                                                  (10**6, 50, 2)])
def test_worker_count_is_capped_at_the_cpus(monkeypatch, threads, reps, workers):
    # each span submitted to the pool starts a thread until max_workers, so
    # --threads alone must not set the thread count; a single span runs on
    # the calling thread and starts no pool
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            return map(fn, spans)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    cfg = ExperimentConfig(dist=Uniform(40), n=30, r=2, reps=reps, seed=5, threads=threads)
    out = run_experiment(cfg)
    assert started == ([] if workers == 1 else [workers])
    assert out["V"].reps == reps


def test_one_span_runs_without_a_pool(monkeypatch):
    cfg = dict(dist=Geometric(0.1), n=40, r=2, reps=300, seed=11)
    pooled = run_experiment(ExperimentConfig(**cfg, threads=2))

    class NoPool:
        def __init__(self, max_workers):
            raise RuntimeError("no thread pool for a single span")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", NoPool)
    assert run_experiment(ExperimentConfig(**cfg, threads=1)) == pooled
    with pytest.raises(RuntimeError, match="no thread pool"):
        run_experiment(ExperimentConfig(**cfg, threads=2))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("wrong", "VLM")
def test_identity_checks_catch_a_kernel_fault(monkeypatch, wrong, threads):
    # the count route is the only check: it must catch a wrong V, L or M alone
    true_sorted_stats = allocation._sorted_stats

    def off_by_one(s, r):
        stats = list(true_sorted_stats(s, r))
        stats["VLM".index(wrong)] += 1
        return tuple(stats)

    monkeypatch.setattr(allocation, "_sorted_stats", off_by_one)
    cfg = dict(dist=Uniform(40), n=60, r=2, reps=50, seed=3, threads=threads)
    with pytest.raises(AssertionError, match=r"count route=\("):
        run_experiment(ExperimentConfig(**cfg, identity_checks=True))
    out = run_experiment(ExperimentConfig(**cfg, identity_checks=False))
    assert out["M"].reps == 50


def test_same_seed_same_result_fresh_process_state():
    cfg = ExperimentConfig(dist=Geometric(0.2), n=50, r=2, reps=500, seed=2024)
    assert run_experiment(cfg) == run_experiment(cfg)


def test_trial_streams_are_order_independent():
    # stream i is a pure function of (seed, i)
    a = trial_rng(123, 7).random(4)
    _ = trial_rng(123, 3).random(10)
    b = trial_rng(123, 7).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(trial_rng(123, 7).random(4), trial_rng(123, 8).random(4))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 20190516]
TRIALS = [0, 1, 1023, 1024, 1025, 2**32 - 1]


def _assert_same_stream(seed, trial):
    ours, oracle = trial_rng(seed, trial), seedsequence_rng(seed, trial)
    np.testing.assert_array_equal(
        ours.bit_generator.seed_seq.generate_state(4, np.uint64),
        oracle.bit_generator.seed_seq.generate_state(4, np.uint64))
    assert ours.bit_generator.state == oracle.bit_generator.state
    np.testing.assert_array_equal(ours.integers(0, 2**63, size=4),
                                  oracle.integers(0, 2**63, size=4))
    np.testing.assert_array_equal(ours.random(4), oracle.random(4))


@pytest.mark.parametrize("trial", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_trial_rng_is_the_seedsequence_stream(seed, trial):
    _assert_same_stream(seed, trial)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from(TRIALS))
def test_trial_rng_is_the_seedsequence_stream_any_seed(seed, trial):
    _assert_same_stream(seed, trial)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 1022))
def test_trial_rng_interleaved_seeds_share_no_block(seed_a, seed_b, trial):
    # two seeds on the same block: a cache keyed on the block alone would
    # hand the second seed the first seed's words
    for seed, i in ((seed_a, trial), (seed_b, trial), (seed_a, trial + 1),
                    (seed_b, trial + 1)):
        _assert_same_stream(seed, i)


@pytest.mark.parametrize("seed,trial", [(0, 2**32), (0, 2**40), (0, -1),
                                        (2**64, 0), (-1, 0)])
def test_trial_rng_refuses_indices_beyond_one_key_word(seed, trial):
    with pytest.raises(ValueError):
        trial_rng(seed, trial)


def test_config_refuses_more_than_2_32_reps():
    ExperimentConfig(dist=Uniform(2), n=1, r=1, reps=2**32, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=Uniform(2), n=1, r=1, reps=2**32 + 1, seed=0)


def test_identity_checks_run_clean():
    cfg = ExperimentConfig(dist=Geometric(0.3), n=40, r=1, reps=300, seed=5,
                           identity_checks=True)
    out = run_experiment(cfg)
    assert out["V"].reps == 300


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dist=Uniform(2), n=0, r=1, reps=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=Uniform(2), n=1, r=1, reps=1, seed=2**64)


@pytest.mark.parametrize("threads", [0, -1])
def test_config_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        ExperimentConfig(dist=Uniform(2), n=1, r=1, reps=1, seed=0, threads=threads)


def test_tv_convergence_rate_to_oracle():
    # TV(empirical, exact) <= 3 sqrt(S / reps)
    dist, n, r = Uniform(3), 5, 1
    oracle = exact_distribution(dist, n, r).pmf
    support = len(oracle)
    rng = np.random.default_rng(31)
    for reps in (10**3, 10**4, 10**5):
        vs = batch_overflows(dist, n, r, reps, rng)
        vals, counts = np.unique(vs, return_counts=True)
        emp = dict(zip(vals.tolist(), (counts / reps).tolist()))
        tv = 0.5 * sum(abs(emp.get(v, 0.0) - oracle.get(v, 0.0))
                       for v in set(emp) | set(oracle))
        assert tv <= 3.0 * np.sqrt(support / reps)


def test_batch_overflows_agree_with_streaming_definition():
    from urnoverflow.allocation import streaming_overflow
    dist, n, r, reps = Custom([1, 1, 2]), 8, 2, 64
    rng1 = np.random.default_rng(44)
    vs = batch_overflows(dist, n, r, reps, rng1)
    rng2 = np.random.default_rng(44)
    balls = dist.sample(rng2, reps * n).reshape(reps, n)
    expected = np.array([streaming_overflow(row, r) for row in balls])
    assert np.array_equal(vs, expected)


FIG2_P = 1.2926608140191314e-06  # 6 n^(-4/3) at n = 10**5


# sha256 of the V, L and M histograms on seed 20190516, so any change to what
# a trial computes (sampler, stream or kernel) fails here
@pytest.mark.parametrize("dist,n,r,reps,checks,digest", [
    pytest.param(Geometric(FIG2_P), 100_000, 3, 20, False,
                 "226f63b26367b83c1c6df0ba6a7d6e1b8f6dcf3d1243e5f474d6e801fca81751", id="fig2"),
    pytest.param(Uniform(25_118), 10_000, 2, 200, False,
                 "5106ca65cda3ca09b5d842d96f3aaa23cd4c2bcf6bfbc395e79395bd70b2a529", id="fig3"),
    pytest.param(Geometric(1e-4), 10_000, 4, 50, True,
                 "4345d224eac642d960abe2d7d261c490eace73a2f6cf46f326e1e1b5ad0f5251",
                 id="fig4-checked"),
    pytest.param(Custom([3, 2, 1]), 30, 2, 200, False,
                 "694b37b6b2a53a74dce444344842044d421bea24a933b0de722207bf10ec35ef", id="custom"),
])
def test_pinned_histograms(dist, n, r, reps, checks, digest):
    out = run_experiment(ExperimentConfig(dist=dist, n=n, r=r, reps=reps, seed=20190516,
                                          identity_checks=checks))
    hists = {name: summary.histogram for name, summary in out.items()}
    assert hashlib.sha256(json.dumps(hists, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("dist,dtype", [(Uniform(25_118), np.int32),
                                        (Geometric(FIG2_P), np.int32),
                                        (Geometric(1e-9), np.int64),
                                        (Custom([3, 2, 1] * 50), np.int32)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_in_place_trial_equals_the_copying_kernel(dist, dtype, r):
    cfg = ExperimentConfig(dist=dist, n=5_000, r=r, reps=4, seed=11)
    for trial in range(cfg.reps):
        balls = dist.sample(trial_rng(cfg.seed, trial), cfg.n)
        before = balls.copy()
        assert balls.dtype == dtype
        assert _trial_stats(cfg, trial) == overflow_stats(balls, r)
        np.testing.assert_array_equal(balls, before)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux-only")
def test_fig2_trials_take_no_fresh_pages():
    # each large temporary of a trial used to be handed back to the OS and
    # faulted in again: about 456 minor faults per fig2 trial
    resource = pytest.importorskip("resource")
    cfg = ExperimentConfig(dist=Geometric(FIG2_P), n=100_000, r=3, reps=21, seed=3)
    _trial_stats(cfg, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for trial in range(1, cfg.reps):
        _trial_stats(cfg, trial)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / (cfg.reps - 1) < 100
