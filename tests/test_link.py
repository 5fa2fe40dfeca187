import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starvlc import (
    ChannelSet,
    DetectorScheme,
    OrientedPoint,
    channel_set,
    effective_channels,
    rate,
    rate_pair,
    rates_from_gains,
    sinr_from_gains,
    sum_rate,
)
from starvlc.link import RATE_SINR_SCALE, validate_beta
from util import reference_scenario


def one_element_setup():
    sc = reference_scenario()
    sc = replace(sc, panel=replace(sc.panel, rows=1, cols=1))
    return sc, channel_set(sc)


class TestEffectiveChannels:
    def test_all_reflect(self):
        sc, ch = one_element_setup()
        h1, h2 = effective_channels(ch, [1.0])
        assert h1 == pytest.approx(ch.h_los + ch.h_reflect[0], rel=1e-14)
        assert h2 == 0.0

    def test_all_transmit(self):
        sc, ch = one_element_setup()
        h1, h2 = effective_channels(ch, [0.0])
        assert h1 == pytest.approx(ch.h_los, rel=1e-14)
        assert h2 == pytest.approx(ch.h_transmit[0], rel=1e-14)

    def test_linear_interpolation(self):
        sc, ch = one_element_setup()
        h1a, h2a = effective_channels(ch, [0.25])
        assert h1a == pytest.approx(ch.h_los + 0.25 * ch.h_reflect[0], rel=1e-14)
        assert h2a == pytest.approx(0.75 * ch.h_transmit[0], rel=1e-14)

    def test_validation(self):
        sc, ch = one_element_setup()
        with pytest.raises(ValueError):
            effective_channels(ch, [1.5])
        with pytest.raises(ValueError):
            effective_channels(ch, [-0.1])
        with pytest.raises(ValueError):
            effective_channels(ch, [0.5, 0.5])
        assert validate_beta([0.0], 1).shape == (1,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        sc = reference_scenario()
        ch = channel_set(sc)
        beta = np.full(ch.element_count, 0.5)
        beta[3] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            effective_channels(ch, beta)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rate_pair(ch, beta, sc, DetectorScheme.SIC)


class TestSinr:
    def test_sic_user1_reference_value(self):
        sc, ch = one_element_setup()
        s1, s2 = sinr_from_gains(*effective_channels(ch, [1.0]), sc, DetectorScheme.SIC)
        h1 = ch.h_los + ch.h_reflect[0]
        expected = (0.7 * h1 * 0.1) ** 2 / 1e-10
        assert s1 == pytest.approx(expected, rel=1e-14)
        assert s1 == pytest.approx(0.4032608439260951, rel=1e-12)
        assert s2 == 0.0  # no transmit-side power reaches the AP

    def test_sud_symmetric_under_user_swap(self):
        # Symmetric synthetic channels: equal gains, equal powers (0.1 W each).
        ch = ChannelSet(h_los=0.0, h_reflect=[2e-5], h_transmit=[2e-5])
        s1, s2 = sinr_from_gains(*effective_channels(ch, [0.5]), reference_scenario(),
                                 DetectorScheme.SUD)
        assert s1 == pytest.approx(s2, rel=1e-14)

    def test_sic_removes_user2_interference(self):
        sc, ch = one_element_setup()
        gains = effective_channels(ch, [0.5])
        sud1, sud2 = sinr_from_gains(*gains, sc, DetectorScheme.SUD)
        sic1, sic2 = sinr_from_gains(*gains, sc, DetectorScheme.SIC)
        assert sic1 > sud1  # interference-free decoding of user 1
        assert sic2 == sud2  # user 2 is decoded first, identically

    def test_manual_sud_formula(self):
        ch = ChannelSet(h_los=1e-5, h_reflect=[3e-5], h_transmit=[4e-5])
        rho, p1, p2, n0 = 0.5, 0.08, 0.12, 2e-10
        sc = reference_scenario()
        sc = replace(sc, p1=p1, p2=p2, noise_variance=n0,
                     front_end=replace(sc.front_end, responsivity=rho))
        beta = [0.3]
        h1 = 1e-5 + 0.3 * 3e-5
        h2 = 0.7 * 4e-5
        s1, s2 = sinr_from_gains(*effective_channels(ch, beta), sc, DetectorScheme.SUD)
        assert s1 == pytest.approx((rho * h1 * p1) ** 2 / (n0 + (rho * h2 * p2) ** 2), rel=1e-13)
        assert s2 == pytest.approx((rho * h2 * p2) ** 2 / (n0 + (rho * h1 * p1) ** 2), rel=1e-13)


class TestRate:
    def test_exact_points(self):
        assert rate(0.0) == 0.0
        assert rate(2.0 * math.pi / math.e) == pytest.approx(0.5, rel=1e-14)
        assert rate(6.0 * math.pi / math.e) == pytest.approx(1.0, rel=1e-14)

    def test_scale_constant(self):
        assert RATE_SINR_SCALE == pytest.approx(math.e / (2.0 * math.pi), rel=1e-16)

    def test_monotone(self):
        xs = np.linspace(0.0, 10.0, 200)
        ys = [rate(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rate(-1e-9)
        with pytest.raises(ValueError):
            rate(math.nan)


class TestRatePair:
    def test_sic_all_reflect_reference(self):
        sc, ch = one_element_setup()
        rp = rate_pair(ch, [1.0], sc, DetectorScheme.SIC)
        assert rp.r1 == pytest.approx(0.11599997360521058, rel=1e-12)
        assert rp.r2 == 0.0
        assert rp.sum == rp.r1
        assert rp.energy_efficiency == pytest.approx(rp.sum / 0.2, rel=1e-14)

    def test_sum_rate_shortcut(self):
        sc, ch = one_element_setup()
        rp = rate_pair(ch, [0.4], sc, DetectorScheme.SUD)
        assert sum_rate(ch, [0.4], sc, DetectorScheme.SUD) == rp.r1 + rp.r2

    def test_zero_power_gives_none_efficiency(self):
        sc, ch = one_element_setup()
        sc0 = replace(sc, p1=0.0, p2=0.0)
        rp = rate_pair(ch, [0.5], sc0, DetectorScheme.SUD)
        assert rp.r1 == 0.0 and rp.r2 == 0.0
        assert rp.energy_efficiency is None

    def test_sic_dominates_sud_pointwise(self):
        sc = reference_scenario()
        ch = channel_set(sc)
        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = rng.uniform(0.0, 1.0, size=ch.element_count)
            sud = rate_pair(ch, beta, sc, DetectorScheme.SUD)
            sic = rate_pair(ch, beta, sc, DetectorScheme.SIC)
            assert sic.sum >= sud.sum - 1e-15
            assert sic.r2 == pytest.approx(sud.r2, rel=1e-14)

    @pytest.mark.parametrize("scheme", list(DetectorScheme))
    def test_sum_rate_peaks_at_a_segment_end(self, scheme):
        """Along a segment that raises H1 and lowers H2, as raising one
        element's coefficient does, the sum rate peaks at an endpoint: a
        coordinate's best value is 0 or 1, so the ES optimum can be binary.
        The exact oracle rests on this along its chain's edges. Seeded
        segments over six decades of power, three of gain and twelve of
        noise variance, some along one axis only; 1e-12 allows for rounding
        alone."""
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 1.0, 21)
        for _ in range(1000):
            sc = replace(reference_scenario(), p1=float(10 ** rng.uniform(-3, 0)),
                         p2=float(10 ** rng.uniform(-3, 0)),
                         noise_variance=float(10 ** rng.uniform(-16, -4)))
            scale = 10 ** rng.uniform(-6, -3)
            h1, h2 = scale * rng.uniform(0.0, 2.0, 2)
            d1, d2 = scale * rng.uniform(0.0, 2.0, 2) * (rng.random(2) > 0.1)
            sums = [rates_from_gains(h1 + x * d1, h2 + (1.0 - x) * d2, sc, scheme).sum
                    for x in t.tolist()]
            assert max(sums) <= max(sums[0], sums[-1]) * (1.0 + 1e-12)


@st.composite
def panels(draw):
    """A two-room scenario with a random geometry and a 1 to 4 x 1 to 4
    panel, its channels, and a coefficient vector for it."""
    coord = lambda lo, hi: draw(st.floats(lo, hi))
    sc = reference_scenario()
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sc = replace(
        sc,
        panel=replace(sc.panel, rows=rows, cols=cols,
                      center=np.array([5.0, coord(1.5, 3.5), coord(1.0, 2.0)])),
        ue1=OrientedPoint([coord(1.0, 4.9), coord(0.5, 4.5), 1.0], [0, 0, 1]),
        ue2=OrientedPoint([coord(5.1, 9.0), coord(0.5, 4.5), 1.0], [0, 0, 1]),
        ap=OrientedPoint([coord(0.5, 4.9), coord(0.5, 4.5), 3.0], [0, 0, -1]),
        p1=coord(0.0, 0.2),
        p2=coord(0.0, 0.2),
    )
    n = rows * cols
    beta = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return sc, channel_set(sc), beta


PROPERTY = settings(max_examples=60, deadline=None)


class TestLinkProperties:
    @PROPERTY
    @given(panels())
    def test_gains_finite_and_nonnegative(self, case):
        _, ch, beta = case
        gains = np.array([ch.h_los, *ch.h_reflect, *ch.h_transmit,
                          *effective_channels(ch, beta)])
        assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)

    @PROPERTY
    @given(panels(), st.randoms(use_true_random=False))
    def test_rates_invariant_under_element_permutation(self, case, random):
        sc, ch, beta = case
        perm = np.array(random.sample(range(beta.size), beta.size))
        permuted = ChannelSet(h_los=ch.h_los, h_reflect=ch.h_reflect[perm],
                              h_transmit=ch.h_transmit[perm])
        for scheme in DetectorScheme:
            a = rate_pair(ch, beta, sc, scheme)
            b = rate_pair(permuted, beta[perm], sc, scheme)
            for x, y in [(a.r1, b.r1), (a.r2, b.r2), (a.sum, b.sum)]:
                assert x == pytest.approx(y, rel=1e-12, abs=1e-15)

    @PROPERTY
    @given(panels())
    def test_sic_sum_rate_at_least_sud(self, case):
        sc, ch, beta = case
        sic = rate_pair(ch, beta, sc, DetectorScheme.SIC)
        sud = rate_pair(ch, beta, sc, DetectorScheme.SUD)
        assert sic.r1 >= sud.r1
        assert sic.r2 == sud.r2
        assert sic.sum >= sud.sum

    @PROPERTY
    @given(panels())
    def test_rates_from_gains_is_rate_pair(self, case):
        sc, ch, beta = case
        for scheme in DetectorScheme:
            assert rates_from_gains(*effective_channels(ch, beta), sc, scheme) == \
                rate_pair(ch, beta, sc, scheme)
