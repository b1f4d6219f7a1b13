import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from urnoverflow.distributions import Custom, Geometric, Uniform, parse_dist_spec

from oracles import support_masses


def test_p_star_examples():
    assert Uniform(4).p_star() == 0.25
    assert Geometric(0.3).p_star() == 0.3
    assert Custom([0.5, 0.3, 0.2]).p_star() == 0.5


def test_power_moment_examples():
    assert Uniform(10).power_moment(2) == pytest.approx(0.01, abs=1e-15)
    # geometric series summed directly to 30 terms
    direct = sum((0.5 * 0.5**j) ** 2 for j in range(30))
    assert Geometric(0.5).power_moment(1) == pytest.approx(direct, abs=1e-9)
    assert Geometric(0.5).power_moment(1) == pytest.approx(1 / 3, abs=1e-12)
    assert Custom([0.5, 0.5]).power_moment(3) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("dist", [
    Uniform(1), Uniform(7), Geometric(0.2), Geometric(0.9),
    Custom([1, 2, 3]), Custom([0.5, 0.5]),
])
@pytest.mark.parametrize("r", range(1, 7))
def test_closed_form_matches_direct_sum(dist, r):
    direct = float(np.sum(support_masses(dist) ** (r + 1)))
    assert dist.power_moment(r) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("dist", [
    Uniform(3), Geometric(0.4), Custom([3, 1, 1]), Geometric(0.01),
])
@pytest.mark.parametrize("r", range(1, 7))
def test_moment_sandwich(dist, r):
    # p_m <= p* gives p*^(r+1) <= E p^r <= p*^r
    ps = dist.p_star()
    m = dist.power_moment(r)
    assert ps ** (r + 1) <= m + 1e-15
    assert m <= ps**r + 1e-15


@pytest.mark.parametrize("p,dtype", [pytest.param(1e-9, np.int64, id="1e-09"),
                                     pytest.param(1.29e-6, np.int32, id="1.29e-06"),
                                     pytest.param(0.3, np.int32, id="0.3"),
                                     pytest.param(0.999, np.int32, id="0.999")])
@pytest.mark.parametrize("seed", [0, 1, 20190516])
def test_geometric_sample_bit_identical_to_inverse_cdf(p, dtype, seed):
    # int32 keys whenever the largest reachable index fits, values of the int64 formula
    got = Geometric(p).sample(np.random.default_rng(seed), 10_000)
    u = np.random.default_rng(seed).random(10_000)
    expected = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
    assert got.dtype == dtype
    assert np.array_equal(got, expected)


class _TopUniform:
    """A stand-in Generator whose every draw is the largest Generator.random
    can return, 1 - 2**-53, followed by the smallest, 0."""

    def random(self, size):
        u = np.full(size, 1.0 - 2.0**-53)
        u[-1] = 0.0
        return u


def _int32_switch():
    # smallest p whose draws come as int32; the dtype is monotone in p
    lo, hi = 1e-9, 1e-7
    assert Geometric(lo).sample(_TopUniform(), 2).dtype == np.int64
    assert Geometric(hi).sample(_TopUniform(), 2).dtype == np.int32
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if Geometric(mid).sample(_TopUniform(), 2).dtype == np.int32:
            hi = mid
        else:
            lo = mid
    return hi


def test_geometric_key_dtype_holds_the_largest_reachable_index():
    switch = _int32_switch()
    assert 1.70e-8 < switch < 1.72e-8
    below = np.nextafter(switch, 0.0)
    for p in (1e-9, below, switch, np.nextafter(switch, 1.0), 1.29e-6):
        got = Geometric(p).sample(_TopUniform(), 2)
        # the sampler's own float operations on u = 1 - 2**-53
        u = -np.array([1.0 - 2.0**-53])
        np.log1p(u, out=u)
        u /= math.log1p(-p)
        top = int(np.floor(u)[0])
        assert got.dtype == (np.int32 if p >= switch else np.int64)
        assert top <= np.iinfo(got.dtype).max
        assert got.tolist() == [top, 0]
    # one index to spare at the switch, and int32 would not hold the index below it
    assert Geometric(switch).sample(_TopUniform(), 2)[0] < np.iinfo(np.int32).max
    assert Geometric(below).sample(_TopUniform(), 2)[0] >= np.iinfo(np.int32).max - 1


@pytest.mark.parametrize("m,dtype", [(1, np.int32), (2, np.int32), (25_118, np.int32),
                                     (10_540_926, np.int32), (2**31 - 1, np.int32),
                                     (2**31, np.int32), (2**31 + 1, np.int64)])
@pytest.mark.parametrize("seed", [0, 1, 7, 20190516])
def test_uniform_sample_is_the_int64_draw(m, dtype, seed):
    # int32 keys up to 2**31 urns, with the values of the default int64 draw
    got = Uniform(m).sample(np.random.default_rng(seed), 10_000)
    expected = np.random.default_rng(seed).integers(0, m, 10_000)
    assert got.dtype == dtype
    assert expected.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("weights", [[3, 2, 1], [4, 3, 2, 1], [0.1] * 7 + [1e-300],
                                     np.arange(1, 1001)])
@pytest.mark.parametrize("seed", [0, 1, 7, 20190516])
def test_custom_sample_is_the_per_call_cdf_search(weights, seed):
    # the CDF built once equals the cumsum the sampler used to build per call
    d = Custom(weights)
    cdf = np.cumsum(d.probs)
    cdf[-1] = 1.0
    expected = np.searchsorted(cdf, np.random.default_rng(seed).random(5_000), side="right")
    got = d.sample(np.random.default_rng(seed), 5_000)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, expected)
    assert not d.cdf.flags.writeable


def test_custom_normalizes_raw_counts():
    d = Custom([2, 6])
    assert np.allclose(d.probs, [0.25, 0.75])


@pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0, 2.0], [math.nan], [math.inf],
                                 [1e308, 1e308]])
def test_custom_rejects_bad_weights(bad):
    with pytest.raises(ValueError):
        Custom(bad)


@pytest.mark.parametrize("call, args, error, message", [
    (Uniform, (0,), ValueError, "urn_count must be a positive integer"),
    (Uniform, (-3,), ValueError, "urn_count must be a positive integer"),
    (Uniform, (2.0,), ValueError, "urn_count must be a positive integer"),
    (setattr, (Custom([1, 3]), "probs", None), AttributeError, "immutable"),
    (Uniform(4).power_moment, (0,), ValueError, "moment order r must be a positive integer"),
    (Geometric(0.5).power_moment, (1.0,), ValueError, "moment order r must be a positive integer"),
    (Custom([1, 3]).power_moment, (-1,), ValueError, "moment order r must be a positive integer"),
], ids=["uniform m=0", "uniform m=-3", "uniform m=2.0", "custom setattr", "uniform r=0",
        "geometric r=1.0", "custom r=-1"])
def test_distribution_checks(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)


def test_custom_is_a_read_only_value():
    d = Custom([1, 3])
    with pytest.raises(ValueError):
        d.probs[0] = 0.5
    assert repr(d) == "Custom([0.25, 0.75])"
    assert d == Custom([2, 6]) == eval(repr(d)) and hash(d) == hash(Custom([2, 6]))
    assert d != Custom([3, 1]) and d != Uniform(2)


@pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.5, math.nan])
def test_geometric_rejects_bad_prob(bad_p):
    with pytest.raises(ValueError):
        Geometric(bad_p)


def test_degenerate_sampling():
    rng = np.random.default_rng(0)
    assert np.all(Uniform(1).sample(rng, 20) == 0)
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
    probs = support_masses(dist)
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
    assert Uniform(m).p_star() == pytest.approx(1.0 / m)


@settings(max_examples=50)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20),
       st.integers(1, 6))
def test_custom_sandwich_property(weights, r):
    d = Custom(weights)
    ps = d.p_star()
    m = d.power_moment(r)
    assert ps ** (r + 1) <= m + 1e-12
    assert m <= ps**r + 1e-12


@settings(max_examples=300)
@given(st.lists(st.floats(5e-324, 1e308), min_size=1, max_size=60))
@example([1e-300, 1e308]).via("mixed scales")
@example([5e-324] * 3).via("subnormal")
@example([8.9e307, 8.9e307]).via("near overflow")
def test_custom_normalized_weights_sum_to_one(weights):
    # finite positive weights with a finite sum normalize to within ulps of 1
    with np.errstate(over="ignore"):
        assume(math.isfinite(np.asarray(weights).sum()))
    assert abs(Custom(weights).probs.sum() - 1.0) <= 1e-12


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
