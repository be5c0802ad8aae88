"""Circular-segment geometry of a partially filled pipe.

All lengths are SI meters; conversions to/from millimeters belong at the
I/O boundary, not here.
"""

import math
from dataclasses import dataclass

from .errors import OutOfRangeError

# Kinematic viscosity of water near 20 degC (m^2/s).
DEFAULT_KINEMATIC_VISCOSITY = 1.0e-6


@dataclass(frozen=True)
class PipeGeometry:
    """Circular pipe of inner diameter ``diameter_m``."""

    diameter_m: float

    def __post_init__(self):
        if not self.diameter_m > 0:
            raise OutOfRangeError(f"pipe diameter must be positive, got {self.diameter_m!r}")

    @property
    def radius_m(self) -> float:
        return 0.5 * self.diameter_m


@dataclass(frozen=True)
class WaterLevel:
    """Free-surface height above the inner pipe bottom, 0 <= H <= D."""

    level_m: float

    def __post_init__(self):
        if not (math.isfinite(self.level_m) and self.level_m >= 0):
            raise OutOfRangeError(f"water level must be finite, non-negative, got {self.level_m!r}")

    def check_against(self, pipe: PipeGeometry) -> None:
        if self.level_m > pipe.diameter_m:
            raise OutOfRangeError(
                f"water level {self.level_m:g} m exceeds pipe diameter {pipe.diameter_m:g} m"
            )


def wetted_angle(level: WaterLevel, pipe: PipeGeometry) -> float:
    """Central angle (rad) subtended by the wetted arc.

    theta = 2*arccos(1 - 2H/D), ranging 0 (empty) to 2*pi (full).
    """
    level.check_against(pipe)
    return 2.0 * math.acos(1.0 - 2.0 * level.level_m / pipe.diameter_m)


def segment_area(level: WaterLevel, pipe: PipeGeometry) -> float:
    """Flow cross-section area (m^2): A = D^2/8 * (theta - sin theta)."""
    theta = wetted_angle(level, pipe)
    return pipe.diameter_m**2 / 8.0 * (theta - math.sin(theta))


def chord_half_width(y: float, pipe: PipeGeometry) -> float:
    """Half-width (m) of the horizontal chord at height ``y`` above the bottom."""
    if y < 0 or y > pipe.diameter_m:
        raise OutOfRangeError(f"chord height {y!r} outside [0, {pipe.diameter_m}]")
    r = pipe.radius_m
    return math.sqrt(max(r * r - (y - r) ** 2, 0.0))


def wetted_perimeter(level: WaterLevel, pipe: PipeGeometry) -> float:
    """Wetted-wall arc length (m); the free surface is not included."""
    return pipe.radius_m * wetted_angle(level, pipe)


def hydraulic_diameter(level: WaterLevel, pipe: PipeGeometry) -> float:
    """D_h = 4A/P with P the wetted perimeter (free surface excluded)."""
    if level.level_m <= 0:
        raise OutOfRangeError("hydraulic diameter undefined at zero level (zero perimeter)")
    return 4.0 * segment_area(level, pipe) / wetted_perimeter(level, pipe)


def reynolds(
    flow_rate_m3s: float,
    level: WaterLevel,
    pipe: PipeGeometry,
    kinematic_viscosity: float = DEFAULT_KINEMATIC_VISCOSITY,
) -> float:
    """Reynolds number (Q/A) * D_h / nu for the partially filled section."""
    if flow_rate_m3s < 0:
        raise OutOfRangeError(f"flow rate must be non-negative, got {flow_rate_m3s!r}")
    if not kinematic_viscosity > 0:
        raise OutOfRangeError(f"viscosity must be positive, got {kinematic_viscosity!r}")
    if flow_rate_m3s == 0:
        return 0.0
    velocity = flow_rate_m3s / segment_area(level, pipe)
    return velocity * hydraulic_diameter(level, pipe) / kinematic_viscosity
