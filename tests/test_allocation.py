import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnoverflow.allocation import (_check_by_counts, overflow_stats, run_trial,
                                    streaming_overflow)
from urnoverflow.distributions import Custom, Geometric, Uniform

from oracles import count_route_stats, per_ball_overflow_stats


def test_single_urn_trial():
    rng = np.random.default_rng(0)
    assert run_trial(Uniform(1), n=5, r=2, rng=rng) == (3, 1, 0)


def test_n_equal_r_never_overflows():
    rng = np.random.default_rng(1)
    for dist in (Uniform(1), Uniform(3), Geometric(0.5)):
        for r in (1, 2, 5):
            v, _, _ = run_trial(dist, n=r, r=r, rng=rng)
            assert v == 0


@pytest.mark.parametrize("call, args, message", [
    (overflow_stats, (np.arange(3), 0), "capacity r must be >= 1"),
    (run_trial, (Uniform(2), 0, 1, np.random.default_rng(0)), "n must be >= 1"),
    (run_trial, (Uniform(2), 3, 0, np.random.default_rng(0)), "capacity r must be >= 1"),
], ids=["overflow_stats r=0", "run_trial n=0", "run_trial r=0"])
def test_trial_sizes_below_one_are_refused(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_uniform2_n4_r1_support():
    # V = 4 - (#occupied urns), occupied in {1, 2}
    rng = np.random.default_rng(7)
    for _ in range(200):
        v, _, _ = run_trial(Uniform(2), n=4, r=1, rng=rng)
        assert v in (2, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 5), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_streaming_equals_count_based(n, r, urns, seed):
    rng = np.random.default_rng(seed)
    balls = Uniform(urns).sample(rng, n)
    assert streaming_overflow(balls, r) == count_route_stats(balls, r)[0]


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


# (smallest, largest) urn index of a draw and the narrowest key width that holds
# both; 2**31 wraps onto -2**31 if narrowed, so that pair would collide
@pytest.mark.parametrize("lo, hi, keys", [
    (0, 2**31 - 1, np.int32),
    (-2**31, 2**31 - 1, np.int32),
    (0, 2**31, np.int64),
    (-2**31, 2**31, np.int64),
    (-2**31 - 1, 0, np.int64),
])
def test_kernel_at_the_int32_key_boundary(lo, hi, keys):
    rng = np.random.default_rng(abs(hi))
    urns = np.array([lo, lo + 1, 7, hi - 1, hi], dtype=np.int64)
    balls = np.concatenate([[lo, hi], rng.choice(urns, size=60)])
    narrow = balls.astype(keys)
    np.testing.assert_array_equal(narrow, balls)
    for r in range(1, 5):
        expected = per_ball_overflow_stats(balls, r)
        for draw in (balls, narrow):
            assert overflow_stats(draw, r) == expected
            assert streaming_overflow(draw, r) == expected[0]


@pytest.mark.parametrize("offset", [0, 2**40])
def test_kernel_leaves_the_draw_unchanged(offset):
    balls = Uniform(50).sample(np.random.default_rng(4), 500).astype(np.int64) + offset
    before = balls.copy()
    overflow_stats(balls, 2)
    streaming_overflow(balls, 2)
    assert balls.dtype == np.int64
    np.testing.assert_array_equal(balls, before)


def test_kernel_leaves_an_int32_draw_unchanged():
    balls = Uniform(50).sample(np.random.default_rng(4), 500)
    before = balls.copy()
    overflow_stats(balls, 2)
    streaming_overflow(balls, 2)
    assert balls.dtype == np.int32
    np.testing.assert_array_equal(balls, before)


def test_int32_draw_matches_its_int64_copy():
    balls = Uniform(300).sample(np.random.default_rng(8), 1000)
    narrow = balls.astype(np.int32)
    for r in range(1, 5):
        assert overflow_stats(narrow, r) == overflow_stats(balls, r)
        assert streaming_overflow(narrow, r) == streaming_overflow(balls, r)
    assert narrow.dtype == np.int32


def test_geometric_draw_beyond_int32_matches_count_route():
    n = 10**4
    balls = Geometric(1e-9).sample(np.random.default_rng(9), n)
    assert balls.max() > 2**31 - 1
    for r in (1, 2, 3):
        expected = count_route_stats(balls, r)
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
    _, L, M = count_route_stats(balls, r)
    v_lo, v, v_hi = _v_of(balls, r - 1), _v_of(balls, r), _v_of(balls, r + 1)
    assert v_lo - v == L
    assert v_lo - 2 * v + v_hi == M


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_r1_specializations(n, urns, seed):
    # L_1 = n - V_1 and M_1 = n - 2 V_1 + V_2
    rng = np.random.default_rng(seed)
    balls = Uniform(urns).sample(rng, n)
    _, L, M = count_route_stats(balls, 1)
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
        v, full, exactly = run_trial(Custom(rng.random(5) + 0.1), n, r, rng)
        assert 0 <= v <= max(n - r, 0)
        assert exactly <= full


@pytest.mark.parametrize("dist, keys", [
    (Uniform(25_118), np.int32), (Geometric(1e-4), np.int32),
    (Geometric(1e-9), np.int64), (Custom([3, 2, 1] * 50), np.int32),
])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_run_trial_is_the_kernel_on_the_same_draw(dist, keys, r):
    for seed in range(3):
        balls = dist.sample(np.random.default_rng(seed), 2_000)
        assert balls.dtype == keys
        assert run_trial(dist, 2_000, r, np.random.default_rng(seed)) == overflow_stats(balls, r)


def test_count_route_check_names_both_triples():
    s = np.sort(Uniform(5).sample(np.random.default_rng(2), 40))
    v, full, exactly = overflow_stats(s, 2)
    _check_by_counts(s, 2, (v, full, exactly))
    wrong = (v, full, exactly + 1)
    with pytest.raises(AssertionError,
                       match=re.escape(f"sort-and-shift={wrong} count route={(v, full, exactly)}")):
        _check_by_counts(s, 2, wrong)


def _assert_check_catches_each_component(s, r, right):
    _check_by_counts(s, r, right)
    for i in range(3):
        for delta in (-1, 1):
            wrong = tuple(x + delta * (j == i) for j, x in enumerate(right))
            with pytest.raises(AssertionError, match="count route="):
                _check_by_counts(s, r, wrong)


@st.composite
def _sorted_draws(draw):
    """A sorted draw of 1..300 keys over a few urns anywhere in the dtype's
    range, negative and >= 2**31 indices included."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    near = st.integers(-3, 3) | st.integers(2**31 - 3, 2**31 + 3).filter(
        lambda k: k <= info.max)
    urns = draw(st.lists(near | st.integers(info.min, info.max),
                         min_size=1, max_size=40, unique=True))
    n = draw(st.integers(1, 300))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(urns), n)
    return np.sort(np.array(urns, dtype=dtype)[picks])


@settings(max_examples=200, deadline=None)
@given(_sorted_draws(), st.integers(1, 6))
@example(np.array([-1, -1, 2**31, 2**31, 2**31], dtype=np.int64), 2)
@example(np.array([-2**31, -2**31, 2**31 - 1], dtype=np.int32), 1)
def test_count_check_accepts_the_oracle_triple_and_rejects_any_off_by_one(s, r):
    _assert_check_catches_each_component(s, r, per_ball_overflow_stats(s, r))


@pytest.mark.parametrize("s, r, right", [
    ([7], 1, (0, 1, 1)),
    ([7], 2, (0, 0, 0)),
    ([3] * 10, 4, (6, 1, 0)),
    ([3] * 10, 10, (0, 1, 1)),
    (list(range(10)), 1, (0, 10, 10)),
    (list(range(10)), 2, (0, 0, 0)),
])
def test_count_check_edge_draws(s, r, right):
    for dtype in (np.int32, np.int64):
        _assert_check_catches_each_component(np.array(s, dtype=dtype), r, right)


@pytest.mark.parametrize("s", [[1, 0], [5, 5, 3, 3], [2, 1, 2], [0, 1, 0, 1]])
def test_count_check_rejects_an_unsorted_draw(s):
    # the triple is right, and on [1, 0] and [5, 5, 3, 3] so are the run
    # lengths: only the order check can catch these
    s = np.array(s, dtype=np.int32)
    with pytest.raises(AssertionError, match="sorted"):
        _check_by_counts(s, 2, per_ball_overflow_stats(s, 2))
