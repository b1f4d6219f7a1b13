"""Every public count, n, r, m, reps and the like, passes one size rule
(``distributions._size``): a bool or any other non-integer is refused, a value
below the argument's floor is refused, and a numpy integer computes as the
Python int of the same value."""

import re

import numpy as np
import pytest

from urnoverflow import (BudgetExceededError, Custom, ExperimentConfig, Geometric,
                         Uniform, binomial_tail, exact_distribution, exact_mean_overflow,
                         exact_mean_via_counts, nod_check, nod_joint_table, overflow_stats,
                         poisson_pmf, regime_report, run_experiment, run_trial)
from urnoverflow.montecarlo import trial_rng
from urnoverflow.stats import EmpiricalSummary


def _experiment(**sizes):
    return run_experiment(ExperimentConfig(dist=Uniform(4), **sizes))


def _trial(n, r):
    return run_trial(Uniform(5), n, r, np.random.default_rng(1))


_CONFIG = dict(n=6, r=1, reps=5, seed=9, threads=1)
_NOD = dict(n=4, k=2, l=3, m1=0, m2=1)

# (call, its valid sizes, the argument under test, the name it is refused
# under, its floor or None)
SIZED = [
    (Uniform, dict(urn_count=5), "urn_count", "urn_count", 1),
    *((law.power_moment, dict(r=3), "r", "moment order r", 1)
      for law in (Uniform(4), Geometric(0.3), Custom([1, 2, 3]))),
    *((_experiment, _CONFIG, arg, arg, 0 if arg == "seed" else 1) for arg in _CONFIG),
    *((lambda n, r: regime_report(Uniform(10), n, r), dict(n=20, r=2), arg, name, 1)
      for arg, name in (("n", "n"), ("r", "moment order r"))),
    *((lambda n, r, route=route: route(Uniform(10), n, r), dict(n=30, r=2), arg, arg, 1)
      for route in (exact_mean_overflow, exact_mean_via_counts) for arg in ("n", "r")),
    *((lambda n, r: exact_distribution(Uniform(3), n, r), dict(n=6, r=2), arg, arg, 1)
      for arg in ("n", "r")),
    (lambda k, r: binomial_tail(k, 0.3, r), dict(k=10, r=3), "k", "k", 0),
    (lambda k, r: binomial_tail(k, 0.3, r), dict(k=10, r=3), "r", "r", None),
    *((lambda **sizes: nod_joint_table(Uniform(3), **sizes), _NOD, arg, arg, None)
      for arg in _NOD),
    *((lambda x1, x2: nod_check(Uniform(3), 4, 2, 3, 0, 1, x1, x2), dict(x1=1, x2=2),
       arg, arg, None) for arg in ("x1", "x2")),
    (lambda r: overflow_stats(np.array([3, 1, 3, 0, 3, 1]), r), dict(r=2), "r",
     "capacity r", 1),
    (_trial, dict(n=20, r=2), "n", "n", 1),
    (_trial, dict(n=20, r=2), "r", "capacity r", 1),
    (lambda k: poisson_pmf(2.0, k), dict(k=3), "k", "k", None),
    *((lambda seed, trial: trial_rng(seed, trial).random(), dict(seed=7, trial=3), arg, arg, 0)
      for arg in ("seed", "trial")),
    (lambda value, count: EmpiricalSummary.from_histogram({0: 4, value: count}),
     dict(value=3, count=2), "value", "histogram value", None),
    (lambda value, count: EmpiricalSummary.from_histogram({0: 4, value: count}),
     dict(value=3, count=2), "count", "histogram count", 0),
]


def _same(a, b) -> bool:
    """Equal bit for bit: arrays by dtype and bytes, anything else by repr,
    which writes floats to their last bit and numpy scalars with their type."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return repr(a) == repr(b)


@pytest.mark.parametrize("call, sizes, arg, name, low", SIZED,
                         ids=[f"{i}-{case[3]}" for i, case in enumerate(SIZED)])
def test_every_count_passes_one_size_rule(call, sizes, arg, name, low):
    want = call(**sizes)
    for bad in (True, float(sizes[arg])):
        message = f"^{re.escape(name)} must be an integer, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            call(**{**sizes, arg: bad})
    if low is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {low}, "
                                             f"got {low - 1}$"):
            call(**{**sizes, arg: low - 1})
    for dtype in (np.int8, np.int32, np.int64, np.uint16):
        assert _same(call(**{**sizes, arg: dtype(sizes[arg])}), want), dtype


@pytest.mark.parametrize("dist, n", [
    # kept as np.int64, n * m and (urns + 1) * n wrap past the mean budget:
    # a mean of 6.5e-31, and a geometric sum over 10^10 urns
    (Uniform(5 * 10**17), np.int64(100)),
    (Geometric(1e-9), np.int64(10**12)),
])
def test_a_numpy_ball_count_is_refused_as_an_int_is(dist, n):
    for count in (n, int(n)):
        with pytest.raises(BudgetExceededError):
            exact_mean_overflow(dist, count, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: overflow_stats(np.arange(4), 1.5), "capacity r must be an integer, got 1.5"),
    (lambda: Uniform(4).power_moment(True), "moment order r must be an integer, got True"),
    (lambda: regime_report(Uniform(10), True, 1), "n must be an integer, got True"),
    (lambda: exact_mean_overflow(Uniform(3), True, True), "n must be an integer, got True"),
    (lambda: binomial_tail(10.0, 0.5, 2), "k must be an integer, got 10.0"),
    (lambda: exact_mean_overflow(Uniform(3), 10.5, 2), "n must be an integer, got 10.5"),
    (lambda: poisson_pmf(2.0, 1.5), "k must be an integer, got 1.5"),
    # taken before: seed True as seed 1, seed 1.5 as a TypeError, a count of
    # 2.7 as 2 and the value True as 1
    (lambda: trial_rng(True, 0), "seed must be an integer, got True"),
    (lambda: trial_rng(1.5, 0), "seed must be an integer, got 1.5"),
    (lambda: EmpiricalSummary.from_histogram({0: 2.7, 1.9: 1}),
     "histogram count must be an integer, got 2.7"),
    (lambda: EmpiricalSummary.from_histogram({True: 3}),
     "histogram value must be an integer, got True"),
])
def test_a_count_that_is_no_integer_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    *((lambda r=r: regime_report(Uniform(10), 5, r), f"moment order r must be < 2**1000, got {r}")
      for r in (2**1000, 2**1024)),
    (lambda: regime_report(Uniform(10), 10**400, 1), f"n must be < 2**1000, got {10**400}"),
    *((lambda k=k: binomial_tail(k, 1e-20, 3), f"k must be < 2**63 - 1, got {k}")
      for k in (2**63 - 1, 2**63)),
    (lambda: Uniform(10**400), f"urn_count must be < 2**1000, got {10**400}"),
])
def test_a_count_too_large_for_float_or_int64_arithmetic_is_refused(call, message):
    # 2**1024 and 10**400 raised an OverflowError from a float conversion before
    # (an urn count of 10**400 in Uniform.p_star), and 2**63 - 1 and 2**63 one
    # from an int64 conversion
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_capacity_past_the_float_range_has_no_overflow():
    # n <= r: no urn overflows, and no route sizes an array or a float by r
    r = 10**400
    assert binomial_tail(5, 0.5, r) == 0.0
    for route in (exact_mean_overflow, exact_mean_via_counts):
        assert route(Uniform(10), 5, r) == 0.0
        assert route(Geometric(0.5), 5, r) == 0.0
    assert overflow_stats(np.array([3, 3, 3]), r) == (0, 0, 0)
    # just below their bounds, both refusing routes still answer
    assert regime_report(Uniform(10), 5, 2**1000 - 1).mu == 0.0
    assert binomial_tail(2**63 - 2, 1e-20, 3) > 0.0


def test_negative_values_keep_their_meaning_where_no_floor_applies():
    assert poisson_pmf(2.0, np.int8(-1)) == 0.0
    assert binomial_tail(4, 0.5, np.int16(-2)) == 1.0
