import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnoverflow.allocation import (counts_from_sequence, full_counts,
                                    overflow_from_counts, overflow_stats,
                                    run_trial, streaming_overflow)
from urnoverflow.distributions import Custom, Geometric, Uniform

from oracles import per_ball_overflow_stats


def test_single_urn_trial():
    rng = np.random.default_rng(0)
    out = run_trial(Uniform(1), n=5, r=2, rng=rng)
    assert out.overflow == 3
    assert out.full_urns == 1
    assert out.exactly_full == 0
    assert out.counts == {0: 5}


def test_n_equal_r_never_overflows():
    rng = np.random.default_rng(1)
    for dist in (Uniform(1), Uniform(3), Geometric(0.5)):
        for r in (1, 2, 5):
            out = run_trial(dist, n=r, r=r, rng=rng)
            assert out.overflow == 0


def test_uniform2_n4_r1_support():
    # V = 4 - (#occupied urns), occupied in {1, 2}
    rng = np.random.default_rng(7)
    for _ in range(200):
        out = run_trial(Uniform(2), n=4, r=1, rng=rng)
        assert out.overflow in (2, 3)


def test_overflow_from_counts_examples():
    assert overflow_from_counts({"A": 3, "B": 2}, n=5, r=2) == 1
    assert overflow_from_counts({"A": 1, "B": 1, "C": 1}, n=3, r=1) == 0
    assert overflow_from_counts({"A": 4}, n=4, r=1) == 3


def test_overflow_from_counts_rejects_bad_sum():
    with pytest.raises(ValueError):
        overflow_from_counts({"A": 3}, n=5, r=2)


def test_full_counts_examples():
    assert full_counts({"A": 3, "B": 2, "C": 1}, r=2) == (2, 1)
    assert full_counts({}, r=3) == (0, 0)
    assert full_counts({"A": 2, "B": 2}, r=2) == (2, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 5), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_streaming_equals_count_based(n, r, urns, seed):
    rng = np.random.default_rng(seed)
    balls = Uniform(urns).sample(rng, n)
    counts = counts_from_sequence(balls)
    assert streaming_overflow(balls, r) == overflow_from_counts(counts, n, r)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=40), st.integers(1, 45),
       st.sampled_from([0, 2**31 - 3, 2**31, 2**32 + 5, 2**62]))
@example(urns=[4], r=1, offset=0)                   # n = 1, V_0 = n
@example(urns=[0, 0, 0], r=3, offset=2**31)         # r = n
@example(urns=[1, 1, 2, 1, 2], r=1, offset=2**62)   # r = 1, far urns
def test_kernel_matches_per_ball_oracle(urns, r, offset):
    balls = np.asarray(urns, dtype=np.int64) + offset
    expected = per_ball_overflow_stats(balls, r)
    assert overflow_stats(balls, r) == expected
    assert streaming_overflow(balls, r) == expected[0]


def _v_of(balls, r):
    if r == 0:
        return len(balls)
    return streaming_overflow(balls, r)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_telescoping_identities(n, r, urns, seed):
    # L_r = V_{r-1} - V_r and M_r = V_{r-1} - 2 V_r + V_{r+1}, with V_0 = n
    rng = np.random.default_rng(seed)
    balls = Uniform(urns).sample(rng, n)
    counts = counts_from_sequence(balls)
    L, M = full_counts(counts, r)
    v_lo, v, v_hi = _v_of(balls, r - 1), _v_of(balls, r), _v_of(balls, r + 1)
    assert v_lo - v == L
    assert v_lo - 2 * v + v_hi == M


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_r1_specializations(n, urns, seed):
    # L_1 = n - V_1 and M_1 = n - 2 V_1 + V_2
    rng = np.random.default_rng(seed)
    balls = Uniform(urns).sample(rng, n)
    counts = counts_from_sequence(balls)
    L, M = full_counts(counts, 1)
    v1, v2 = streaming_overflow(balls, 1), streaming_overflow(balls, 2)
    assert L == n - v1
    assert M == n - 2 * v1 + v2


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 50), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_overflow_monotone(n, urns, seed):
    # non-increasing in r; non-decreasing in n on the same coupled sequence
    rng = np.random.default_rng(seed)
    balls = Uniform(urns).sample(rng, n)
    vs = [streaming_overflow(balls, r) for r in range(1, 6)]
    assert all(a >= b for a, b in zip(vs, vs[1:]))
    prefix_vs = [streaming_overflow(balls[:k], 2) for k in range(1, n + 1)]
    assert all(a <= b for a, b in zip(prefix_vs, prefix_vs[1:]))


def test_outcome_invariants_randomized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        r = int(rng.integers(1, 5))
        out = run_trial(Custom(rng.random(5) + 0.1), n, r, rng)
        assert sum(out.counts.values()) == n
        assert 0 <= out.overflow <= max(n - r, 0)
        assert out.exactly_full <= out.full_urns


def test_sequence_retained_on_request():
    rng = np.random.default_rng(3)
    out = run_trial(Uniform(4), 10, 2, rng, keep_sequence=True)
    assert out.sequence is not None and out.sequence.size == 10
    out2 = run_trial(Uniform(4), 10, 2, rng)
    assert out2.sequence is None
