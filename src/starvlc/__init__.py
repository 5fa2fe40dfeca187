"""Two-user uplink VLC link assisted by a simultaneously transmitting and
reflecting RIS: channel model, sum-rate optimizers and validation oracles."""

__version__ = "0.1.0"

from .channel import (
    ChannelSet,
    OpticalFrontEnd,
    Scenario,
    channel_set,
    h_los,
)
from .geometry import LambertianSource, OrientedPoint, RisPanel, build_ris_grid, lambertian_order
from .link import (
    DetectorScheme,
    RatePair,
    effective_channels,
    rate,
    rate_pair,
    rates_from_gains,
    sinr_from_gains,
    sum_rate,
)
from .oracle import OracleReport, coordinate_scan, vertex_enumerate
from .spca import (
    SpcaConfig,
    SpcaResult,
    max_min_optimize,
    mode_switching_optimize,
    reduced_objective,
    solve_subproblem,
    spca_optimize,
    time_sharing_optimize,
)

# The chain walk's implementation; benchmark run records read it.
KERNEL_BACKEND = "numpy"

__all__ = [
    "KERNEL_BACKEND",
    "ChannelSet",
    "OpticalFrontEnd",
    "Scenario",
    "channel_set",
    "h_los",
    "LambertianSource",
    "OrientedPoint",
    "RisPanel",
    "build_ris_grid",
    "lambertian_order",
    "DetectorScheme",
    "RatePair",
    "effective_channels",
    "rate",
    "rate_pair",
    "rates_from_gains",
    "sinr_from_gains",
    "sum_rate",
    "OracleReport",
    "coordinate_scan",
    "vertex_enumerate",
    "SpcaConfig",
    "SpcaResult",
    "max_min_optimize",
    "mode_switching_optimize",
    "reduced_objective",
    "solve_subproblem",
    "spca_optimize",
    "time_sharing_optimize",
]
