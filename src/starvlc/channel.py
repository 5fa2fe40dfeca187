"""Lambertian LOS and RIS-relayed NLOS channel gains.

The LOS gain covers the direct UE1 -> AP path; the per-element relayed gains
cover UE1 -> element -> AP (reflect side) and UE2 -> element -> AP (transmit
side). Each relayed path uses the summed path length squared in the
denominator and the AP-side field-of-view indicator. Emission-side angles
beyond 90 degrees zero the gain (a Lambertian source emits nothing backwards).

`channel_set` builds both gain vectors in one pass: the AP side (element
distances, incidence cosines, field-of-view mask) and the Lambertian order
and gain factor are computed once per build and shared by both UEs. Each
UE's gain is evaluated on every element and then masked to 0 where the
element is behind the UE or outside the AP's field of view, which costs
fewer numpy calls than gathering the visible elements and scattering their
gains back. The emission cosine is clipped at 0 before `cos ** m`, so the
masked-out elements never raise a negative base to the fractional order m
(a RuntimeWarning, which the test suite turns into an error). Element-wise
ufuncs give the same bits on a subset as on the whole array, so the gains
are bitwise those of the gathered form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    LambertianSource,
    OrientedPoint,
    RisPanel,
    build_ris_grid,
    fieldwise_eq,
)


@dataclass(frozen=True)
class OpticalFrontEnd:
    """Photodetector parameters: area (m^2), FOV half-angle (deg),
    concentrator-plus-filter gain, responsivity (A/W)."""

    area: float = 1.5e-4
    fov_deg: float = 85.0
    gain: float = 10.0
    responsivity: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.area < math.inf:  # NaN fails too
            raise ValueError(f"detector area must be positive and finite, got {self.area}")
        if not 0.0 < self.fov_deg <= 90.0:
            raise ValueError(f"FOV half-angle must be in (0, 90] degrees, got {self.fov_deg}")
        if not 0.0 < self.gain < math.inf:
            raise ValueError(f"concentrator/filter gain must be positive and finite, "
                             f"got {self.gain}")
        if not 0.0 < self.responsivity < math.inf:
            raise ValueError(f"responsivity must be positive and finite, got {self.responsivity}")


@dataclass(frozen=True)
class Scenario:
    """Full physical setup of the two-room uplink."""

    ap: OrientedPoint
    ue1: OrientedPoint
    ue2: OrientedPoint
    source: LambertianSource
    panel: RisPanel
    front_end: OpticalFrontEnd
    p1: float = 0.1
    p2: float = 0.1
    noise_variance: float = 1e-10

    def __post_init__(self):
        if not (0.0 <= self.p1 < math.inf and 0.0 <= self.p2 < math.inf):  # NaN fails too
            raise ValueError(f"powers must be nonnegative and finite, got {self.p1}, {self.p2}")
        if not 0.0 < self.noise_variance < math.inf:
            raise ValueError(f"noise variance must be positive and finite, "
                             f"got {self.noise_variance}")
        n = self.panel.normal
        c = self.panel.center
        side = lambda p: float(np.dot(p.position - c, n))
        s_ap, s1, s2 = side(self.ap), side(self.ue1), side(self.ue2)
        if s_ap * s1 < 0.0:
            raise ValueError("ue1 and ap must lie on the same side of the panel plane")
        if s_ap * s2 > 0.0:
            raise ValueError("ue2 must lie on the opposite side of the panel plane from the ap")


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Precomputed gains: LOS scalar plus per-element reflect/transmit vectors."""

    h_los: float
    h_reflect: np.ndarray
    h_transmit: np.ndarray

    def __post_init__(self):
        hr = np.asarray(self.h_reflect, dtype=float)
        ht = np.asarray(self.h_transmit, dtype=float)
        object.__setattr__(self, "h_reflect", hr)
        object.__setattr__(self, "h_transmit", ht)
        if hr.ndim != 1 or hr.shape != ht.shape:
            raise ValueError(f"reflect and transmit gains must be 1-D vectors of equal length, "
                             f"got shapes {hr.shape} and {ht.shape}")
        gains = np.concatenate(([self.h_los], hr, ht))
        if not (gains.min() >= 0.0 and gains.max() < math.inf):  # a NaN fails both
            raise ValueError("channel gains must be finite and nonnegative")

    @property
    def element_count(self) -> int:
        return self.h_reflect.size

    @property
    def dead(self) -> np.ndarray:
        """Mask of the dead elements, those with both gains 0."""
        return (self.h_reflect == 0.0) & (self.h_transmit == 0.0)

    __eq__ = fieldwise_eq


def _lambertian(scenario: Scenario) -> tuple[float, float]:
    """The source's Lambertian order m and the gain factor every path
    carries, A (m + 1) / (2 pi) G."""
    m = scenario.source.order
    fe = scenario.front_end
    return m, fe.area * (m + 1.0) / (2.0 * math.pi) * fe.gain


def h_los(scenario: Scenario) -> float:
    """LOS gain of the UE1 -> AP link."""
    return _los_gain(scenario, *_lambertian(scenario))


def _los_gain(scenario: Scenario, m: float, factor: float) -> float:
    """`h_los` from the source's Lambertian order m and gain factor."""
    ue, ap = scenario.ue1, scenario.ap
    d = ap.position - ue.position
    dist = math.sqrt(float(d.dot(d)))  # np.linalg.norm(d), without the wrapper
    if dist == 0.0:
        raise ValueError("UE1 and AP coincide: degenerate geometry")
    cos_phi = float(d.dot(ue.normal)) / dist
    cos_psi = float((-d).dot(ap.normal)) / dist
    fov = math.radians(scenario.front_end.fov_deg)
    if cos_phi <= 0.0 or cos_psi < math.cos(fov):
        return 0.0
    return factor / dist**2 * cos_phi**m * cos_psi


def _relay_gains(scenario: Scenario, elements: np.ndarray, m: float,
                 factor: float) -> list[np.ndarray]:
    """Vectorized relayed gains per element, UE1's (reflect) and UE2's
    (transmit); the AP side is computed once for both."""
    points = (scenario.ap, scenario.ue1, scenario.ue2)
    offsets = [elements - p.position for p in points]  # point -> element
    dists = []
    for v in offsets:
        sq = v * v
        # np.linalg.norm(v, axis=1) of a real (N, 3) array: the same bits
        dists.append(np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2]))
    if not all(d.all() for d in dists):  # checked before any division
        raise ValueError("UE or AP coincides with a RIS element: degenerate geometry")
    cos_psi = offsets[0] @ scenario.ap.normal / dists[0]
    in_fov = cos_psi >= math.cos(math.radians(scenario.front_end.fov_deg))
    gains = []
    for k in (1, 2):
        cos_phi = offsets[k] @ points[k].normal / dists[k]
        # clipped, so that x ** m sees no negative base where it is masked out
        g = factor / (dists[k] + dists[0]) ** 2 * np.maximum(cos_phi, 0.0) ** m * cos_psi
        gains.append(np.where((cos_phi > 0.0) & in_fov, g, 0.0))
    return gains


def channel_set(scenario: Scenario) -> ChannelSet:
    """Assemble the LOS gain and both per-element gain vectors."""
    elements = build_ris_grid(scenario.panel)
    m, factor = _lambertian(scenario)
    los = _los_gain(scenario, m, factor)
    h_reflect, h_transmit = _relay_gains(scenario, elements, m, factor)
    return ChannelSet(h_los=los, h_reflect=h_reflect, h_transmit=h_transmit)
