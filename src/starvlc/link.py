"""Effective channels, SINRs and achievable rates for a coefficient vector.

A coefficient vector `beta` holds the N reflection coefficients in [0, 1];
the transmission coefficient of each element is 1 - beta[i]. Rates use the
VLC lower bound 0.5 * log2(1 + (e / 2pi) * SINR), in bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelSet, Scenario

# Prefactor of the SINR inside the achievable-rate lower bound.
RATE_SINR_SCALE = math.e / (2.0 * math.pi)


class DetectorScheme(Enum):
    """AP decoding scheme: treat-as-noise (SUD) or decode user 2 first (SIC)."""

    SUD = "sud"
    SIC = "sic"


@dataclass(frozen=True)
class RatePair:
    """Per-user rates (bpcu), their sum and the resulting energy efficiency.

    `energy_efficiency` is None when the total power is zero (0/0)."""

    r1: float
    r2: float
    sum: float
    energy_efficiency: float | None


def pair_from_rates(r1: float, r2: float, scenario: Scenario) -> RatePair:
    """(r1, r2) with their sum and energy efficiency: the one RatePair builder."""
    total_power = scenario.p1 + scenario.p2
    return RatePair(r1, r2, r1 + r2, (r1 + r2) / total_power if total_power > 0.0 else None)


def validate_beta(beta, n: int) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n,):
        raise ValueError(f"beta length {beta.shape} does not match element count {n}")
    if beta.size and not (beta.min() >= 0.0 and beta.max() <= 1.0):  # a NaN fails both
        raise ValueError("beta entries must lie in [0, 1]")
    return beta


def effective_channels(channels: ChannelSet, beta) -> tuple[float, float]:
    """Effective gains (H1, H2) seen by the AP for the given split."""
    beta = validate_beta(beta, channels.element_count)
    h1 = channels.h_los + float(beta @ channels.h_reflect)
    h2 = float((1.0 - beta) @ channels.h_transmit)
    return h1, h2


def _sinrs(s1, s2, sigma2: float, sic: bool):
    """The two users' SINRs from their received powers s1, s2 (floats or
    arrays): user 2 always sees user 1 as noise; user 1 sees user 2 as noise
    under SUD and no interference under SIC, which cancels user 2 first."""
    sinr1 = s1 / sigma2 if sic else s1 / (sigma2 + s2)
    return sinr1, s2 / (sigma2 + s1)


def sinr_from_gains(h1: float, h2: float, scenario: Scenario,
                    scheme: DetectorScheme) -> tuple[float, float]:
    """Post-detection SINRs of the two users for effective gains (H1, H2)."""
    rho = scenario.front_end.responsivity
    s1 = (rho * h1 * scenario.p1) ** 2
    s2 = (rho * h2 * scenario.p2) ** 2
    return _sinrs(s1, s2, scenario.noise_variance, scheme is DetectorScheme.SIC)


def rate(sinr_value: float) -> float:
    """Achievable rate (bpcu) of a link with the given SINR."""
    if not sinr_value >= 0.0:  # NaN fails too
        raise ValueError(f"SINR must be nonnegative, got {sinr_value}")
    return 0.5 * math.log2(1.0 + RATE_SINR_SCALE * sinr_value)


def rates_from_gains(h1: float, h2: float, scenario: Scenario,
                     scheme: DetectorScheme) -> RatePair:
    """Both users' rates, sum-rate and energy efficiency for effective gains
    (H1, H2). Every rate depends on `beta` only through these two scalars."""
    s1, s2 = sinr_from_gains(h1, h2, scenario, scheme)
    return pair_from_rates(rate(s1), rate(s2), scenario)


def rate_pair(channels: ChannelSet, beta, scenario: Scenario, scheme: DetectorScheme) -> RatePair:
    """Both users' rates plus sum-rate and energy efficiency."""
    h1, h2 = effective_channels(channels, beta)
    return rates_from_gains(h1, h2, scenario, scheme)


def sum_rate(channels: ChannelSet, beta, scenario: Scenario, scheme: DetectorScheme) -> float:
    """Sum-rate shortcut for callers holding a `beta`. No solver or oracle
    calls it; `spca` imports it by name so tracers can wrap it."""
    return rate_pair(channels, beta, scenario, scheme).sum
