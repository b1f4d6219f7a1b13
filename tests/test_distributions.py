import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnoverflow.distributions import (Custom, Geometric, Uniform, p_star,
                                       parse_dist_spec, power_moment, sample_box)


def test_p_star_examples():
    assert p_star(Uniform(4)) == 0.25
    assert p_star(Geometric(0.3)) == 0.3
    assert p_star(Custom([0.5, 0.3, 0.2])) == 0.5


def test_power_moment_examples():
    assert power_moment(Uniform(10), 2) == pytest.approx(0.01, abs=1e-15)
    # geometric series summed directly to 30 terms
    direct = sum((0.5 * 0.5**j) ** 2 for j in range(30))
    assert power_moment(Geometric(0.5), 1) == pytest.approx(direct, abs=1e-9)
    assert power_moment(Geometric(0.5), 1) == pytest.approx(1 / 3, abs=1e-12)
    assert power_moment(Custom([0.5, 0.5]), 3) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("dist", [
    Uniform(1), Uniform(7), Geometric(0.2), Geometric(0.9),
    Custom([1, 2, 3]), Custom([0.5, 0.5]),
])
@pytest.mark.parametrize("r", range(1, 7))
def test_closed_form_matches_direct_sum(dist, r):
    direct = float(np.sum(dist.support_probs(tail_tol=1e-15) ** (r + 1)))
    assert power_moment(dist, r) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("dist", [
    Uniform(3), Geometric(0.4), Custom([3, 1, 1]), Geometric(0.01),
])
@pytest.mark.parametrize("r", range(1, 7))
def test_moment_sandwich(dist, r):
    # p_m <= p* gives p*^(r+1) <= E p^r <= p*^r
    ps = p_star(dist)
    m = power_moment(dist, r)
    assert ps ** (r + 1) <= m + 1e-15
    assert m <= ps**r + 1e-15


@pytest.mark.parametrize("p", [1e-9, 1.29e-6, 0.3, 0.999])
@pytest.mark.parametrize("seed", [0, 1, 20190516])
def test_geometric_sample_bit_identical_to_inverse_cdf(p, seed):
    got = Geometric(p).sample(np.random.default_rng(seed), 10_000)
    u = np.random.default_rng(seed).random(10_000)
    expected = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


def test_custom_normalizes_raw_counts():
    d = Custom([2, 6])
    assert np.allclose(d.probs, [0.25, 0.75])


@pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0, 2.0], [math.nan], [math.inf]])
def test_custom_rejects_bad_weights(bad):
    with pytest.raises(ValueError):
        Custom(bad)


@pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.5, math.nan])
def test_geometric_rejects_bad_prob(bad_p):
    with pytest.raises(ValueError):
        Geometric(bad_p)


def test_degenerate_sampling():
    rng = np.random.default_rng(0)
    assert all(sample_box(Uniform(1), rng) == 0 for _ in range(20))
    assert np.all(Custom([1.0]).sample(rng, 100) == 0)


def test_uniform2_frequency_band():
    rng = np.random.default_rng(20240817)
    draws = Uniform(2).sample(rng, 10**6)
    frac0 = np.mean(draws == 0)
    assert abs(frac0 - 0.5) < 0.002  # 4 sigma band


@pytest.mark.parametrize("dist", [Uniform(5), Geometric(0.35), Custom([4, 3, 2, 1])])
def test_empirical_frequencies_within_5_se(dist):
    rng = np.random.default_rng(99)
    n = 10**6
    draws = dist.sample(rng, n)
    probs = dist.support_probs()
    for urn, p in enumerate(probs[:50]):
        freq = np.mean(draws == urn)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 5 * se + 1e-12


def test_geometric_sampling_is_inverse_cdf():
    # floor(log1p(-u)/log1p(-p)) applied to the same uniform stream
    p = 0.17
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    u = rng2.random(1000)
    expected = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
    assert np.array_equal(Geometric(p).sample(rng1, 1000), expected)


@given(st.integers(1, 1000))
def test_uniform_pstar_is_reciprocal(m):
    assert p_star(Uniform(m)) == pytest.approx(1.0 / m)


@settings(max_examples=50)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20),
       st.integers(1, 6))
def test_custom_sandwich_property(weights, r):
    d = Custom(weights)
    ps = d.p_star()
    m = d.power_moment(r)
    assert ps ** (r + 1) <= m + 1e-12
    assert m <= ps**r + 1e-12


def test_parse_specs(tmp_path):
    assert parse_dist_spec("uniform:m=4") == Uniform(4)
    assert parse_dist_spec("geometric:p=0.25") == Geometric(0.25)
    f = tmp_path / "w.txt"
    f.write_text("# comment\n1.0\n3.0  # trailing\n", encoding="utf-8")
    d = parse_dist_spec(f"custom:@{f}")
    assert np.allclose(d.probs, [0.25, 0.75])


@pytest.mark.parametrize("bad", ["uniform", "uniform:n=3", "geometric:p", "custom:w.txt",
                                 "exp:l=2", "uniform:m=abc"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_dist_spec(bad)
