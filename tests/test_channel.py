import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starvlc import (
    ChannelSet,
    LambertianSource,
    OpticalFrontEnd,
    OrientedPoint,
    RisPanel,
    Scenario,
    build_ris_grid,
    channel_set,
    h_los,
)
from starvlc.geometry import unit
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

    @pytest.mark.parametrize("shape", [(2, 3), (6, 1), (), (1, 0)], ids=str)
    def test_gains_must_be_vectors(self, shape):
        """Gains of any shape but 1-D are rejected; before, (2, 3) arrays
        built a 6-element set that the solvers then failed on."""
        gains = np.ones(shape) * 1e-6
        with pytest.raises(ValueError, match="1-D"):
            ChannelSet(1e-5, gains, gains)

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


def reference_gain_factor(scenario: Scenario) -> float:
    """`channel._gain_factor` before the one-pass build, kept verbatim."""
    m = scenario.source.order
    fe = scenario.front_end
    return fe.area * (m + 1.0) / (2.0 * math.pi) * fe.gain


def reference_h_los(scenario: Scenario) -> float:
    """`channel.h_los` before the one-pass build, kept verbatim but for
    `reference_gain_factor`."""
    ue, ap = scenario.ue1, scenario.ap
    d = ap.position - ue.position
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise ValueError("UE1 and AP coincide: degenerate geometry")
    m = scenario.source.order
    cos_phi = float(np.dot(d, ue.normal)) / dist
    cos_psi = float(np.dot(-d, ap.normal)) / dist
    fov = math.radians(scenario.front_end.fov_deg)
    if cos_phi <= 0.0 or cos_psi < math.cos(fov):
        return 0.0
    return reference_gain_factor(scenario) / dist**2 * cos_phi**m * cos_psi


def reference_relay_gains(scenario: Scenario, ue: OrientedPoint,
                          elements: np.ndarray) -> np.ndarray:
    """`channel._relay_gains` before the one-pass build, kept verbatim but
    for `reference_gain_factor`: one UE per call, the AP side recomputed
    each time."""
    ap = scenario.ap
    m = scenario.source.order
    to_elem = elements - ue.position[None, :]
    d_ue = np.linalg.norm(to_elem, axis=1)
    ap_to_elem = elements - ap.position[None, :]
    d_ap = np.linalg.norm(ap_to_elem, axis=1)
    if np.any(d_ue == 0.0) or np.any(d_ap == 0.0):
        raise ValueError("UE or AP coincides with a RIS element: degenerate geometry")
    cos_phi = to_elem @ ue.normal / d_ue
    cos_psi = ap_to_elem @ ap.normal / d_ap
    fov = math.radians(scenario.front_end.fov_deg)
    ok = (cos_phi > 0.0) & (cos_psi >= math.cos(fov))
    gains = np.zeros(elements.shape[0])
    gains[ok] = (
        reference_gain_factor(scenario)
        / (d_ue[ok] + d_ap[ok]) ** 2
        * cos_phi[ok] ** m
        * cos_psi[ok]
    )
    return gains


def reference_unit(v: np.ndarray) -> np.ndarray:
    """`geometry.unit` before the one-pass build, kept verbatim."""
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def reference_panel_axes(panel: RisPanel) -> tuple[np.ndarray, np.ndarray]:
    """`geometry.panel_axes` before the one-pass build, kept verbatim but for
    `reference_unit`: the column axis from `np.cross`."""
    n = panel.normal
    z = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(n, z))) < 1.0 - 1e-12:
        row_axis = reference_unit(z - float(np.dot(z, n)) * n)
    else:
        row_axis = reference_unit(np.array([1.0, 0.0, 0.0]) - float(n[0]) * n)
    col_axis = np.cross(row_axis, n)
    return col_axis, row_axis


def reference_build_ris_grid(panel: RisPanel) -> np.ndarray:
    """`geometry.build_ris_grid` before the one-pass build, kept verbatim but
    for `reference_panel_axes`: a C-ordered (rows*cols, 3) array."""
    col_axis, row_axis = reference_panel_axes(panel)
    col_off = (np.arange(panel.cols) - (panel.cols - 1) / 2.0) * panel.pitch
    row_off = (np.arange(panel.rows) - (panel.rows - 1) / 2.0) * panel.pitch
    pts = (
        panel.center[None, None, :]
        + row_off[:, None, None] * row_axis[None, None, :]
        + col_off[None, :, None] * col_axis[None, None, :]
    )
    return pts.reshape(panel.rows * panel.cols, 3)


def reference_channel_set(scenario: Scenario) -> ChannelSet:
    """`channel.channel_set` before the one-pass build, kept verbatim but for
    the reference helpers above."""
    elements = reference_build_ris_grid(scenario.panel)
    return ChannelSet(
        h_los=reference_h_los(scenario),
        h_reflect=reference_relay_gains(scenario, scenario.ue1, elements),
        h_transmit=reference_relay_gains(scenario, scenario.ue2, elements),
    )


def assert_same_channels(scenario):
    """`channel_set` gives bitwise the two-pass build's gains, and
    `build_ris_grid` its element positions."""
    new, ref = channel_set(scenario), reference_channel_set(scenario)
    assert np.float64(new.h_los).tobytes() == np.float64(ref.h_los).tobytes()
    assert new.h_reflect.tobytes() == ref.h_reflect.tobytes()
    assert new.h_transmit.tobytes() == ref.h_transmit.tobytes()
    grid, ref_grid = build_ris_grid(scenario.panel), reference_build_ris_grid(scenario.panel)
    assert grid.shape == ref_grid.shape and grid.tobytes() == ref_grid.tobytes()
    return new


def facing(draw, toward):
    """A unit facing direction: `toward` the panel (most often), straight up
    or down, or any direction."""
    kind = draw(st.sampled_from(["toward", "toward", "up", "down", "any"]))
    if kind == "any":
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        assume(np.linalg.norm(v) > 0.1)
        return unit(v)
    return {"up": np.array([0.0, 0.0, 1.0]), "down": np.array([0.0, 0.0, -1.0]),
            "toward": toward}[kind]


@st.composite
def scenarios(draw):
    """Scenarios with the panel in a wall (horizontal normal), a ceiling or
    floor (vertical normal) or tilted; 0 to 5 rows and columns; the AP and
    UE1 on one side and UE2 on the other, 5 cm to 3 m off the plane, each
    facing the panel or elsewhere; a FOV of 5 to 90 degrees."""
    kind = draw(st.sampled_from(["wall", "ceiling", "tilted"]))
    if kind == "wall":
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        normal = np.array([math.cos(angle), math.sin(angle), 0.0])
    elif kind == "ceiling":
        normal = np.array([0.0, 0.0, draw(st.sampled_from([1.0, -1.0]))])
    else:
        normal = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        assume(np.linalg.norm(normal) > 0.1)
    center = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)))
    panel = RisPanel(center=center, rows=draw(st.integers(0, 5)), cols=draw(st.integers(0, 5)),
                     pitch=draw(st.floats(0.05, 0.5)), normal=normal)
    n = panel.normal
    ap_side = draw(st.sampled_from([1.0, -1.0]))

    def point(side):
        r = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
        position = center + (r - float(np.dot(r, n)) * n) + side * draw(st.floats(0.05, 3.0)) * n
        return OrientedPoint(position, facing(draw, -side * n))
    ap, ue1, ue2 = point(ap_side), point(ap_side), point(-ap_side)
    assume(np.linalg.norm(ap.position - ue1.position) > 1e-3)  # h_los rejects coinciding points
    return Scenario(ap=ap, ue1=ue1, ue2=ue2,
                    source=LambertianSource(draw(st.floats(5.0, 85.0))), panel=panel,
                    front_end=OpticalFrontEnd(fov_deg=draw(st.floats(5.0, 90.0))))


def ceiling_scenario():
    """A panel in the ceiling between the rooms, facing up: the AP and UE1
    above it, UE1 facing down at it; UE2 below it facing up."""
    sc = reference_scenario()
    return replace(sc, panel=replace(sc.panel, center=np.array([5.0, 2.5, 2.0]),
                                     normal=np.array([0.0, 0.0, 1.0])),
                   ue1=OrientedPoint([3.5, 2.5, 2.5], [0.0, 0.0, -1.0]),
                   ue2=OrientedPoint([6.0, 2.5, 1.0], [0.0, 0.0, 1.0]))


class TestOnePassBuild:
    """The one-pass build gives bitwise the gains of the two-pass build it
    replaced (`reference_channel_set`)."""

    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_drawn_scenarios_match_the_two_pass_build(self, sc):
        assert_same_channels(sc)

    def test_wall_panel(self):
        ch = assert_same_channels(reference_scenario())
        assert np.all(ch.h_reflect > 0.0) and np.all(ch.h_transmit > 0.0)

    def test_ceiling_panel(self):
        ch = assert_same_channels(ceiling_scenario())
        assert np.any(ch.h_reflect > 0.0) and np.any(ch.h_transmit > 0.0)

    def test_elements_outside_the_fov(self):
        """At a 20 degree FOV some elements are seen by both UEs but lie
        outside the AP's field of view; both gains are 0 there."""
        sc = reference_scenario()
        sc = replace(sc, front_end=replace(sc.front_end, fov_deg=20.0))
        ch = assert_same_channels(sc)
        assert np.any(ch.dead) and np.any(ch.h_reflect > 0.0)
        assert np.array_equal(ch.h_reflect == 0.0, ch.h_transmit == 0.0)

    def test_elements_behind_a_ue(self):
        """A panel across the UEs' plane: its lower rows are behind both
        up-facing UEs, so they relay nothing."""
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, center=np.array([5.0, 2.5, 1.0])))
        ch = assert_same_channels(sc)
        below = build_ris_grid(sc.panel)[:, 2] < 1.0
        assert np.any(below) and np.all(ch.dead[below]) and not np.any(ch.dead[~below])

    def test_empty_panel(self):
        sc = reference_scenario()
        ch = assert_same_channels(replace(sc, panel=replace(sc.panel, cols=0)))
        assert ch.element_count == 0

    @pytest.mark.parametrize("point", ["ap", "ue1", "ue2"])
    def test_a_point_on_an_element_raises_with_no_warning(self, point):
        """A UE or the AP on element 4 of a 2 x 3 panel is rejected before
        any division by its zero distance, so no RuntimeWarning comes first."""
        sc = reference_scenario()
        sc = replace(sc, panel=replace(sc.panel, rows=2, cols=3))
        on_element = OrientedPoint(build_ris_grid(sc.panel)[4], getattr(sc, point).normal)
        sc = replace(sc, **{point: on_element})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="coincides with a RIS element"):
                channel_set(sc)
        assert caught == []


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
