import numpy as np
import pytest

from urnoverflow.distributions import Custom, Geometric, Uniform
from urnoverflow.exact import exact_distribution
from urnoverflow.montecarlo import ExperimentConfig, run_experiment, trial_rng

from oracles import batch_overflows


def test_deterministic_single_urn():
    cfg = ExperimentConfig(dist=Uniform(1), n=5, r=2, reps=100, seed=1)
    out = run_experiment(cfg)
    assert out["V"].histogram == {3: 100}
    assert out["V"].mean == 3.0
    assert out["V"].variance == 0.0
    assert out["L"].histogram == {1: 100}
    assert out["M"].histogram == {0: 100}


def test_matches_exact_distribution():
    cfg = ExperimentConfig(dist=Uniform(2), n=4, r=1, reps=10**5, seed=99,
                           collect=("V",))
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


def test_identity_checks_run_clean():
    cfg = ExperimentConfig(dist=Geometric(0.3), n=40, r=1, reps=300, seed=5,
                           identity_checks=True)
    out = run_experiment(cfg)
    assert out["V"].reps == 300


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dist=Uniform(2), n=0, r=1, reps=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=Uniform(2), n=1, r=1, reps=1, seed=0, collect=("X",))
    with pytest.raises(ValueError):
        ExperimentConfig(dist=Uniform(2), n=1, r=1, reps=1, seed=2**64)


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
