"""Lambertian LOS and RIS-relayed NLOS channel gains.

The LOS gain covers the direct UE1 -> AP path; the per-element relayed gains
cover UE1 -> element -> AP (reflect side) and UE2 -> element -> AP (transmit
side). Each relayed path uses the summed path length squared in the
denominator and the AP-side field-of-view indicator. Emission-side angles
beyond 90 degrees zero the gain (a Lambertian source emits nothing backwards).
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
        object.__setattr__(self, "h_reflect", np.asarray(self.h_reflect, dtype=float))
        object.__setattr__(self, "h_transmit", np.asarray(self.h_transmit, dtype=float))
        if self.h_reflect.shape != self.h_transmit.shape:
            raise ValueError("reflect and transmit gain vectors must have equal length")
        gains = np.concatenate(([self.h_los], self.h_reflect.ravel(), self.h_transmit.ravel()))
        if not np.all(np.isfinite(gains) & (gains >= 0.0)):
            raise ValueError("channel gains must be finite and nonnegative")

    @property
    def element_count(self) -> int:
        return self.h_reflect.size

    __eq__ = fieldwise_eq


def _gain_factor(scenario: Scenario) -> float:
    m = scenario.source.order
    fe = scenario.front_end
    return fe.area * (m + 1.0) / (2.0 * math.pi) * fe.gain


def h_los(scenario: Scenario) -> float:
    """LOS gain of the UE1 -> AP link."""
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
    return _gain_factor(scenario) / dist**2 * cos_phi**m * cos_psi


def _relay_gains(scenario: Scenario, ue: OrientedPoint, elements: np.ndarray) -> np.ndarray:
    """Vectorized relayed gain per element for one UE."""
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
        _gain_factor(scenario)
        / (d_ue[ok] + d_ap[ok]) ** 2
        * cos_phi[ok] ** m
        * cos_psi[ok]
    )
    return gains


def channel_set(scenario: Scenario) -> ChannelSet:
    """Assemble the LOS gain and both per-element gain vectors."""
    elements = build_ris_grid(scenario.panel)
    return ChannelSet(
        h_los=h_los(scenario),
        h_reflect=_relay_gains(scenario, scenario.ue1, elements),
        h_transmit=_relay_gains(scenario, scenario.ue2, elements),
    )
