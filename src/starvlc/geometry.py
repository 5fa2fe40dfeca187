"""Vector geometry of the two-room setup: positions, angles, RIS element grid.

All positions are in meters in the room coordinate frame (x across the two
rooms, z up). Angles passed to the low-level helpers are in radians; the
scenario-facing dataclasses keep angles in degrees so that config files
round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


def fieldwise_eq(self, other):
    """`==` for a dataclass that holds arrays: the same class and every field
    equal under `np.array_equal`. A class that declares `__eq__ = fieldwise_eq`
    stays unhashable, as arrays are."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


def as_vec3(value) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite vector components: {v}")
    return v


def unit(v: np.ndarray) -> np.ndarray:
    n = math.sqrt(float(v.dot(v)))  # np.linalg.norm(v) of a real vector, without the wrapper
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def lambertian_order(half_angle: float) -> float:
    """Lambertian order for a source with the given half-intensity angle (rad)."""
    if not 0.0 < half_angle < math.pi / 2:
        raise ValueError(f"half-intensity angle must be in (0, pi/2), got {half_angle}")
    return -math.log(2.0) / math.log(math.cos(half_angle))


@dataclass(frozen=True)
class LambertianSource:
    """LED radiation pattern, parameterized by its half-intensity angle."""

    half_angle_deg: float

    def __post_init__(self):
        if not 0.0 < self.half_angle_deg < 90.0:
            raise ValueError(
                f"half-intensity angle must be in (0, 90) degrees, got {self.half_angle_deg}"
            )

    @property
    def order(self) -> float:
        return lambertian_order(math.radians(self.half_angle_deg))


@dataclass(frozen=True, eq=False)
class OrientedPoint:
    """A position with a unit normal (detector or emitter orientation)."""

    position: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "normal", as_vec3(self.normal))
        n = float(np.linalg.norm(self.normal))
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"normal must be unit length, got norm {n}")

    __eq__ = fieldwise_eq


@dataclass(frozen=True, eq=False)
class RisPanel:
    """Rectangular grid of RIS elements centered on `center`.

    Rows run along the in-plane "up" axis (z for the default +x normal),
    columns along the remaining in-plane axis (y). Element ordering is
    row-major so coefficient indices are reproducible across runs.
    """

    center: np.ndarray
    rows: int
    cols: int
    pitch: float = 0.1
    normal: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        if self.normal is None:
            object.__setattr__(self, "normal", np.array([1.0, 0.0, 0.0]))
        else:
            object.__setattr__(self, "normal", unit(as_vec3(self.normal)))
        # rows = 0 or cols = 0 is allowed and yields an empty (RIS-free) panel
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"rows and cols must be nonnegative, got {self.rows}x{self.cols}")
        if not 0.0 < self.pitch < math.inf:  # NaN fails too
            raise ValueError(f"pitch must be positive and finite, got {self.pitch}")

    @property
    def element_count(self) -> int:
        return self.rows * self.cols

    __eq__ = fieldwise_eq


def panel_axes(panel: RisPanel) -> tuple[np.ndarray, np.ndarray]:
    """In-plane (column, row) unit axes for the panel.

    For a panel whose normal has no z component (a wall), rows run along +z
    and columns along the horizontal in-plane direction; otherwise any
    orthonormal in-plane pair is constructed deterministically.
    """
    n = panel.normal
    z = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(n, z))) < 1.0 - 1e-12:
        row_axis = unit(z - float(np.dot(z, n)) * n)
    else:
        row_axis = unit(np.array([1.0, 0.0, 0.0]) - float(n[0]) * n)
    (r0, r1, r2), (n0, n1, n2) = row_axis.tolist(), n.tolist()
    col_axis = np.array([r1 * n2 - r2 * n1, r2 * n0 - r0 * n2, r0 * n1 - r1 * n0])  # row x n
    return col_axis, row_axis


def build_ris_grid(panel: RisPanel) -> np.ndarray:
    """Element positions, shape (rows*cols, 3), row-major, centered on the panel.

    Within a row the column coordinate increases; across rows the row
    coordinate increases (increasing y then z for the default +x normal).
    Each is (center + row offset) + column offset, one `np.add` of (rows, 3)
    and (cols, 3) parts looping over a panel axis innermost (`order="F"`) into
    a C-ordered buffer: the same two sums per entry, so no bit moves.
    """
    col_axis, row_axis = panel_axes(panel)
    col_off = (np.arange(panel.cols) - (panel.cols - 1) / 2.0) * panel.pitch
    row_off = (np.arange(panel.rows) - (panel.rows - 1) / 2.0) * panel.pitch
    rows = panel.center + row_off[:, None] * row_axis
    pts = np.empty((panel.rows, panel.cols, 3))
    np.add(rows[:, None, :], col_off[:, None] * col_axis, out=pts, order="F")
    return pts.reshape(panel.rows * panel.cols, 3)
