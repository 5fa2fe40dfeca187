import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from starvlc import (
    ChannelSet,
    OpticalFrontEnd,
    OrientedPoint,
    RisPanel,
    Scenario,
    build_ris_grid,
    channel_set,
    h_los,
)
from util import random_scenario, reference_scenario


def one_element_scenario():
    """Reference setup with a single relay element at the panel center."""
    sc = reference_scenario()
    return replace(sc, panel=replace(sc.panel, rows=1, cols=1))


class TestLos:
    def test_reference_value(self):
        # Independent step-by-step evaluation: UE1 [3.5,2.5,1] up-facing,
        # AP [4.5,2.5,3] down-facing, m=1, A=1.5e-4, G=10.
        d = math.sqrt(1.0**2 + 2.0**2)
        cos_phi = 2.0 / d
        cos_psi = 2.0 / d
        expected = 1.5e-4 * 2.0 / (2.0 * math.pi * d**2) * cos_phi * cos_psi * 10.0
        got = h_los(reference_scenario())
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(7.639437268410974e-05, rel=1e-12)

    def test_inverse_square_decay(self):
        sc = reference_scenario()
        # AP directly overhead: doubling the height quarters the gain
        # (angles stay fixed at zero).
        near = replace(sc, ap=OrientedPoint([3.5, 2.5, 2.0], [0, 0, -1]))
        far = replace(sc, ap=OrientedPoint([3.5, 2.5, 3.0], [0, 0, -1]))
        assert h_los(near) / h_los(far) == pytest.approx(4.0, rel=1e-12)

    def test_fov_cutoff(self):
        sc = reference_scenario()
        narrow = replace(sc, front_end=replace(sc.front_end, fov_deg=30.0))
        # incidence angle at the AP is atan2(1, 2) ~ 26.6 deg < 30: passes
        assert h_los(narrow) > 0.0
        narrower = replace(sc, front_end=replace(sc.front_end, fov_deg=20.0))
        assert h_los(narrower) == 0.0

    def test_backward_emission_is_zero(self):
        sc = reference_scenario()
        flipped = replace(sc, ue1=OrientedPoint(sc.ue1.position, [0, 0, -1]))
        assert h_los(flipped) == 0.0

    def test_coincident_points_rejected(self):
        sc = reference_scenario()
        bad = replace(
            sc,
            ue1=OrientedPoint(sc.ap.position, [0, 0, 1]),
        )
        with pytest.raises(ValueError):
            h_los(bad)


class TestRelayed:
    def test_reflect_reference_value(self):
        sc = one_element_scenario()
        # UE1 [3.5,2.5,1] -> element [5,2.5,1.5] -> AP [4.5,2.5,3]
        d1 = math.sqrt(1.5**2 + 0.5**2)
        d2 = math.sqrt(0.5**2 + 1.5**2)
        cos_phi = 0.5 / d1
        cos_psi = 1.5 / d2
        expected = 1.5e-4 * 2.0 / (2.0 * math.pi * (d1 + d2) ** 2) * cos_phi * cos_psi * 10.0
        got = channel_set(sc).h_reflect[0]
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1.4323944878270576e-05, rel=1e-12)

    def test_transmit_reference_value(self):
        sc = one_element_scenario()
        # UE2 [6,2.5,1] -> element [5,2.5,1.5] -> AP [4.5,2.5,3]
        d1 = math.sqrt(1.0**2 + 0.5**2)
        d2 = math.sqrt(0.5**2 + 1.5**2)
        cos_phi = 0.5 / d1
        cos_psi = 1.5 / d2
        expected = 1.5e-4 * 2.0 / (2.0 * math.pi * (d1 + d2) ** 2) * cos_phi * cos_psi * 10.0
        got = channel_set(sc).h_transmit[0]
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(2.7804574620178703e-05, rel=1e-12)

    def test_summed_path_length_not_product(self):
        # The relayed denominator is (d1 + d2)^2; a product d1^2 * d2^2 would
        # differ by orders of magnitude here.
        sc = one_element_scenario()
        d1 = math.sqrt(1.5**2 + 0.5**2)
        d2 = math.sqrt(0.5**2 + 1.5**2)
        got = channel_set(sc).h_reflect[0]
        wrong = got * (d1 + d2) ** 2 / (d1 * d2) ** 2
        assert not got == pytest.approx(wrong, rel=0.3)

    def test_element_below_detector_plane_is_dead(self):
        # An element below the UE plane is behind the up-facing source.
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=1, cols=1,
                                       center=np.array([5.0, 2.5, 0.5])))
        ch = channel_set(sc)
        assert ch.h_reflect[0] == 0.0
        assert ch.h_transmit[0] == 0.0


class TestChannelSet:
    def test_matches_per_element_functions(self):
        """Both gain vectors equal the relayed gain written out from each
        element's position: m = 1 (60 deg half angle), A = 1.5e-4, G = 10,
        every listed element inside the FOV."""
        sc = reference_scenario()
        ch = channel_set(sc)
        elements = build_ris_grid(sc.panel)
        ap = sc.ap.position

        def relayed(ue, element):
            d1 = math.dist(ue.position, element)
            d2 = math.dist(element, ap)
            cos_phi = float(np.dot(element - ue.position, ue.normal)) / d1
            cos_psi = float(np.dot(element - ap, sc.ap.normal)) / d2
            return 1.5e-4 * 2.0 / (2.0 * math.pi * (d1 + d2) ** 2) * cos_phi * cos_psi * 10.0

        assert ch.element_count == 80
        assert ch.h_los == h_los(sc)
        for i in [0, 1, 7, 8, 39, 79]:
            reflect = relayed(sc.ue1, elements[i])
            transmit = relayed(sc.ue2, elements[i])
            assert reflect > 0.0 and transmit > 0.0
            assert ch.h_reflect[i] == pytest.approx(reflect, rel=1e-13)
            assert ch.h_transmit[i] == pytest.approx(transmit, rel=1e-13)

    def test_all_gains_nonnegative_and_finite(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            sc = random_scenario(rng, rows=3, cols=4)
            ch = channel_set(sc)
            assert np.all(ch.h_reflect >= 0.0)
            assert np.all(ch.h_transmit >= 0.0)
            assert np.all(np.isfinite(ch.h_reflect))
            assert np.all(np.isfinite(ch.h_transmit))
            assert ch.h_los >= 0.0

    def test_symmetry_across_panel(self):
        # Mirror UE positions through the panel plane with symmetric angles:
        # reflect and transmit gains coincide elementwise.
        sc = reference_scenario()
        sym = replace(
            sc,
            ue1=OrientedPoint([4.0, 2.5, 1.0], [0, 0, 1]),
            ue2=OrientedPoint([6.0, 2.5, 1.0], [0, 0, 1]),
            ap=OrientedPoint([5.0, 2.5, 3.0], [0, 0, -1]),
        )
        ch = channel_set(sym)
        np.testing.assert_allclose(ch.h_reflect, ch.h_transmit, rtol=1e-12)

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError):
            ChannelSet(h_los=0.0, h_reflect=np.zeros(3), h_transmit=np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-6])
    @pytest.mark.parametrize("gain", ["h_los", "h_reflect", "h_transmit"])
    def test_non_finite_gains_rejected(self, gain, bad):
        gains = {"h_los": 1e-6, "h_reflect": [1e-6, 2e-6], "h_transmit": [1e-6, 2e-6]}
        gains[gain] = bad if gain == "h_los" else [1e-6, bad]
        with pytest.raises(ValueError, match="finite"):
            ChannelSet(**gains)

    def test_empty_panel(self):
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=0))
        ch = channel_set(sc)
        assert ch.element_count == 0
        assert ch.h_los > 0.0


class TestScenarioValidation:
    def test_ue2_on_wrong_side_rejected(self):
        sc = reference_scenario()
        with pytest.raises(ValueError):
            replace(sc, ue2=OrientedPoint([4.0, 2.5, 1.0], [0, 0, 1]))

    def test_ue1_on_wrong_side_rejected(self):
        sc = reference_scenario()
        with pytest.raises(ValueError):
            replace(sc, ue1=OrientedPoint([6.0, 2.5, 1.0], [0, 0, 1]))

    def test_negative_power_rejected(self):
        sc = reference_scenario()
        for power in ("p1", "p2"):
            for bad in (-0.1, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="powers"):
                    replace(sc, **{power: bad})

    def test_noise_must_be_positive(self):
        sc = reference_scenario()
        for bad in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="noise variance"):
                replace(sc, noise_variance=bad)

    def test_front_end_validation(self):
        with pytest.raises(ValueError):
            OpticalFrontEnd(area=0.0)
        with pytest.raises(ValueError):
            OpticalFrontEnd(fov_deg=95.0)
        with pytest.raises(ValueError):
            OpticalFrontEnd(responsivity=-0.7)
        for field in ("area", "fov_deg", "gain", "responsivity"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    OpticalFrontEnd(**{field: bad})

    def test_panel_pitch_rejects_non_finite(self):
        panel = reference_scenario().panel
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="pitch"):
                replace(panel, pitch=bad)


def one_element_negated(obj, field):
    """`obj` with the first nonzero element of its array `field` negated, or
    halved for a channel gain, which must stay nonnegative."""
    values = np.array(getattr(obj, field))
    i = int(np.flatnonzero(values)[0])
    values[i] = 0.5 * values[i] if isinstance(obj, ChannelSet) else -values[i]
    return replace(obj, **{field: values})


class TestValueEquality:
    """Objects holding arrays compare field by field, each array exactly."""

    @pytest.mark.parametrize("name, field", [
        ("ap", "position"), ("ap", "normal"), ("panel", "center"), ("panel", "normal"),
        ("channels", "h_reflect"), ("channels", "h_transmit"),
    ])
    def test_array_fields(self, name, field):
        sc = reference_scenario()
        obj = channel_set(sc) if name == "channels" else getattr(sc, name)
        assert obj == copy.deepcopy(obj)
        assert obj != one_element_negated(obj, field)

    def test_scenario(self):
        sc = reference_scenario()
        assert sc == copy.deepcopy(sc)
        assert sc != replace(sc, ap=one_element_negated(sc.ap, "position"))
        assert sc != replace(sc, p2=0.2)

    def test_other_type_is_unequal(self):
        sc = reference_scenario()
        assert sc.panel != sc.ap
        assert sc != sc.panel
