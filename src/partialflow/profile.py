"""Normalized velocity distribution over a partially filled circular section.

The model evaluates v/v_max at any wetted point from two calibrated
entropy parameters plus an interpolated maximum-velocity (dip) position.
The horizontal coordinate enters through |x|: the physical profile is
left-right symmetric, and a signed x would put a negative base under
non-integer powers.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from ._numpy import np
from ._record import record
from .errors import OutOfRangeError
from .geometry import PipeGeometry, WaterLevel

# Calibrated entropy constants for the velocity-distribution model.
DEFAULT_M = 0.89
DEFAULT_Q = 1.15

# Cubic in H/D giving the dip position h/H. Highest degree first is NOT
# used here: coefficients are (c3, c2, c1, c0). The linear coefficient is
# +0.18, which pins the two synthetic anchor points exactly: h/H = 1.00
# for a vanishing level and h/H = 0.50 (mid-depth maximum) for a full
# pipe. A -0.18 sign variant circulates; it breaks both anchors and
# drives the correction factor negative at high levels.
DEFAULT_DIP_COEFFS = (1.78, -2.46, 0.18, 1.00)

# Floor keeps ln(h') finite; the cubic itself stays well above this.
DIP_RATIO_FLOOR = 1e-3


@record
class EntropyParams:
    """Entropy parameters M (dimensionless) and q (non-extensive)."""

    m: float = DEFAULT_M
    q: float = DEFAULT_Q

    def __post_init__(self):
        if not 0 < self.m < 1:
            raise OutOfRangeError(f"M must lie in (0, 1), got {self.m!r}")
        if not 1 < self.q < math.inf:
            raise OutOfRangeError(f"q must be finite and exceed 1, got {self.q!r}")

    @property
    def tail_weight(self) -> float:
        """(1-M)^(q/(q-1)); the additive constant inside the velocity bracket."""
        return (1.0 - self.m) ** (self.q / (self.q - 1.0))


@record
class DipPositionPoly:
    """Cubic interpolant h/H = c3*t^3 + c2*t^2 + c1*t + c0 with t = H/D.

    Output is clamped into (0, 1]: the ratio is a height fraction, and a
    hard floor keeps downstream logarithms finite.
    """

    coeffs: tuple[float, float, float, float] = DEFAULT_DIP_COEFFS

    def __call__(self, relative_level: float) -> float:
        if relative_level < 0 or relative_level > 1:
            raise OutOfRangeError(f"relative level {relative_level!r} outside [0, 1]")
        c3, c2, c1, c0 = self.coeffs
        t = relative_level
        raw = ((c3 * t + c2) * t + c1) * t + c0
        return min(max(raw, DIP_RATIO_FLOOR), 1.0)


DEFAULT_DIP_POLY = DipPositionPoly()


@record
class ProfilePoint:
    """A point of the cross-section: x from centerline, y above the bottom (m)."""

    x: float
    y: float


@record
class ProfileModel:
    """Immutable bundle of everything needed to evaluate v/v_max."""

    pipe: PipeGeometry
    level: WaterLevel
    params: EntropyParams = EntropyParams()
    dip: DipPositionPoly = DEFAULT_DIP_POLY

    def __post_init__(self):
        self.level.check_against(self.pipe)

    @property
    def dip_ratio(self) -> float:
        return self.dip(self.level.level_m / self.pipe.diameter_m)

    @property
    def dip_height_m(self) -> float:
        """Height h of the maximum-velocity point on the centerline."""
        return self.dip_ratio * self.level.level_m

    @property
    def wall_value(self) -> float:
        """v/v_max in the F = 0 limit (pipe wall); about -0.124 at the default M and q."""
        c = self.params.tail_weight
        return 1.0 - 1.0 / self.params.m + c ** (1.0 / self.params.q) / self.params.m


def normalized_velocity(point: ProfilePoint, model: ProfileModel) -> float:
    """v/v_max at the point; pipe-bottom and wall points take the F = 0 limit."""
    r = model.pipe.radius_m
    h2 = point.x**2 + (point.y - r) ** 2
    if h2 > r * r * (1.0 + 1e-12) or point.y < 0:
        raise OutOfRangeError(f"point {point} lies outside the pipe bore")
    if point.y > model.level.level_m * (1.0 + 1e-12) + 1e-15:
        raise OutOfRangeError(f"point {point} lies above the water line")
    return point_velocity(model)(point.x, point.y)


# numpy's names for one point in plain floats; max and min written out run ~3x faster
_Floats = SimpleNamespace(
    abs=abs, log=math.log, exp=math.exp, sqrt=math.sqrt,
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
    where=lambda condition, a, b: a if condition else b)


def _velocity(model: ProfileModel, lib):
    """v/v_max, written once for both quadrature rules: returns v(x, y), with what
    depends on the model alone worked out once. ``lib`` is numpy, for broadcastable
    arrays, or ``_Floats``, for one point. Points must lie in the closed wetted region,
    unchecked. Boundary points (local wall, pipe bottom) take the wall value: there the
    formula runs on placeholders (y = 1, wall = 0), so no log or power meets y' <= 0."""
    r, diameter, level, ratio = (model.pipe.radius_m, model.pipe.diameter_m,
                                 model.level.level_m, model.dip_ratio)
    m, q, c, wall_value = model.params.m, model.params.q, model.params.tail_weight, model.wall_value
    depth = level or r  # an empty pipe has no core: its depth is a placeholder too
    absolute, log, exp, sqrt, where, maximum, minimum = (
        lib.abs, lib.log, lib.exp, lib.sqrt, lib.where, lib.maximum, lib.minimum)
    log_2, log_d, tail = math.log(2.0), log(diameter), 2.0 * (1.0 - ratio)

    def velocity(x, y):
        x = absolute(x)
        wall = r - sqrt(maximum(r * r - x * x, 0.0))
        core = (y - wall > 0.0) & (y > 0.0) & (level - wall > 0.0)
        y, wall = where(core, y, 1.0), where(core, wall, 0.0)
        y_local, dip_local = y - wall, ratio * (depth - wall)  # y' and the local dip h'
        s = log_2 / (log_d - log(dip_local))
        t_s = exp(s * log(y_local / diameter))
        # Below the dip 1 - u^2; above it the exponent pair is L = 2h/H, K = 2(H-h)/H. The
        # base 1 - u^(2L) can cross zero below the free surface when the dip ratio drops
        # under 1/2: the model's virtual zero-velocity height 2h' then sits inside the
        # water column. Clamp the base at zero so F stays a real CDF value.
        u = y_local / dip_local - 1.0
        shape = where(u <= 0.0, 1.0 - u * u,
                      maximum(1.0 - maximum(u, 0.0) ** (4.0 * ratio), 0.0) ** tail)
        lateral = 1.0 - (x / (0.5 * diameter)) ** (diameter / depth)
        cdf = minimum(maximum(4.0 * (t_s - t_s * t_s) * shape * lateral, 0.0), 1.0)
        bracket = y_local / y * (1.0 - c) * cdf + c  # the CDF weighted by y'/y
        return where(core, 1.0 - 1.0 / m + bracket ** (1.0 / q) / m, wall_value)

    return velocity


def evaluate_velocity(model: ProfileModel, x, y):
    """v/v_max over broadcastable coordinate arrays (``_velocity`` on numpy)."""
    return _velocity(model, np)(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def point_velocity(model: ProfileModel):
    """v(x, y) for one point at a time, in plain floats (``_velocity`` on floats)."""
    return _velocity(model, _Floats)


@record
class ProfileGrid:
    """Rectangular sample grid; v is NaN outside the wetted region."""

    x_m: np.ndarray
    y_m: np.ndarray
    v: np.ndarray

    def write_csv(self, stream) -> None:
        stream.write("x_mm,y_mm,v_norm\n")
        for j, yv in enumerate(self.y_m):
            for i, xv in enumerate(self.x_m):
                stream.write(
                    f"{float(1000.0 * xv)!r},{float(1000.0 * yv)!r},{float(self.v[j, i])!r}\n"
                )


def profile_grid(model: ProfileModel, nx: int, ny: int) -> ProfileGrid:
    """Sample v/v_max on an nx-by-ny grid spanning the bore width and depth."""
    if nx < 2 or ny < 2:
        raise OutOfRangeError(f"grid needs at least 2 points per axis, got {nx}x{ny}")
    r = model.pipe.radius_m
    height = model.level.level_m
    xs = np.linspace(-r, r, nx)
    xs = 0.5 * (xs - xs[::-1])  # force exact mirror symmetry
    ys = np.linspace(0.0, height, ny)
    xg, yg = np.meshgrid(xs, ys)
    wetted = xg**2 + (yg - r) ** 2 <= r * r * (1.0 + 1e-12)
    v = np.full(xg.shape, np.nan)
    v[wetted] = evaluate_velocity(model, xg[wetted], yg[wetted])
    return ProfileGrid(x_m=xs, y_m=ys, v=v)
