"""Normalized velocity distribution over a partially filled circular section.

The model evaluates v/v_max at any wetted point from two calibrated
entropy parameters plus an interpolated maximum-velocity (dip) position.
The horizontal coordinate enters through |x|: the physical profile is
left-right symmetric, and a signed x would put a negative base under
non-integer powers.
"""

import math
from collections import namedtuple

from ._record import record
from .config import EntropyParams
from .errors import OutOfRangeError
from .geometry import PipeGeometry, WaterLevel

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
class DipPositionPoly:
    """Cubic interpolant h/H = c3*t^3 + c2*t^2 + c1*t + c0 with t = H/D.

    Output is clamped into (0, 1]: the ratio is a height fraction, and a
    hard floor keeps downstream logarithms finite.
    """

    coeffs: tuple[float, float, float, float] = DEFAULT_DIP_COEFFS

    def __post_init__(self):
        if len(self.coeffs) != 4 or not all(map(math.isfinite, self.coeffs)):
            raise OutOfRangeError(f"dip coefficients must be 4 finite numbers, got {self.coeffs}")

    def __call__(self, relative_level: float) -> float:
        if relative_level < 0 or relative_level > 1:
            raise OutOfRangeError(f"relative level {relative_level!r} outside [0, 1]")
        c3, c2, c1, c0 = self.coeffs
        t = relative_level
        raw = ((c3 * t + c2) * t + c1) * t + c0
        return min(max(raw, DIP_RATIO_FLOOR), 1.0)


DEFAULT_DIP_POLY = DipPositionPoly()


# A point of the cross-section: x from centerline, y above the bottom (m).
ProfilePoint = namedtuple("ProfilePoint", "x y")


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


# A row of one node of unit weight at x = w: x = w * 1.0, x_p = w_p * 1.0 and 1.0 * v are exact.
_ONE_POINT = ((1.0, 1.0, 1.0),)


def normalized_velocity(point: ProfilePoint, model: ProfileModel) -> float:
    """v/v_max at the point; pipe-bottom and wall points take the F = 0 limit."""
    r = model.pipe.radius_m
    h2 = point.x**2 + (point.y - r) ** 2
    if not (h2 <= r * r * (1.0 + 1e-12) and point.y >= 0):  # so a NaN coordinate fails
        raise OutOfRangeError(f"point {point} lies outside the pipe bore")
    if not point.y <= model.level.level_m * (1.0 + 1e-12) + 1e-15:
        raise OutOfRangeError(f"point {point} lies above the water line")
    return _velocity(model)[0](_ONE_POINT, point.y, point.x)


def _velocity(model: ProfileModel):
    """v/v_max, the one formula, as a row kernel: returns row(nodes, y, w), the sum of
    dx v at (w sin, y) over the (sin, sin^p, dx) nodes, added left to right from 0.0 (the
    builtin sum compensates from Python 3.12), and the lateral power p. Each lateral term
    (|x| / (D/2))^p is w_p sin^p, with w_p = (|w| / (D/2))^p taken once per row. Points must
    lie in the closed wetted region, unchecked; boundary points (local wall, pipe bottom)
    take the wall value, so no log or power meets y' <= 0."""
    r, diameter, level, ratio = (model.pipe.radius_m, model.pipe.diameter_m,
                                 model.level.level_m, model.dip_ratio)
    m, c, wall_value = model.params.m, model.params.tail_weight, model.wall_value
    depth = level or r  # an empty pipe has no core: its depth is a placeholder
    r2, log, sqrt = r * r, math.log, math.sqrt
    log_2, log_d, kink, tail = math.log(2.0), math.log(diameter), 4.0 * ratio, 2.0 * (1.0 - ratio)
    offset, inverse_q, weight = 1.0 - 1.0 / m, 1.0 / model.params.q, 1.0 - c
    power = diameter / depth

    def row(nodes, y, w):
        total, w_p = 0.0, (abs(w) / r) ** power
        for sin, sin_p, dx in nodes:
            x = w * sin
            under = r2 - x * x
            wall = r - sqrt(under) if under > 0.0 else r  # the local wall under x
            y_local = y - wall  # y'
            if not (y_local > 0.0 and level > wall):
                total += dx * wall_value
                continue
            dip_local = ratio * (depth - wall)  # the local dip h'
            # Below the dip 1 - u^2; above it the exponent pair is L = 2h/H, K = 2(H-h)/H.
            # The base 1 - u^(2L) can cross zero below the free surface when the dip ratio
            # drops under 1/2: the model's virtual zero-velocity height 2h' then sits
            # inside the water column. Clamp the base at zero so F stays a real CDF value:
            # then F = 0, and its bracket c gives the wall value by the same operations
            # (unless the dip ratio is 1, where the factor base^0 is 1 at any base).
            u = y_local / dip_local - 1.0
            if u <= 0.0:
                shape = 1.0 - u * u
            else:
                shape = 1.0 - u**kink
                if shape <= 0.0 < tail:
                    total += dx * wall_value
                    continue
                shape **= tail
            t_s = (y_local / diameter) ** (log_2 / (log_d - log(dip_local)))
            cdf = 4.0 * (t_s - t_s * t_s) * shape * (1.0 - w_p * sin_p)
            cdf = 0.0 if cdf < 0.0 else 1.0 if cdf > 1.0 else cdf
            bracket = y_local / y * weight * cdf + c  # the CDF weighted by y'/y
            total += dx * (offset + bracket**inverse_q / m)
        return total

    return row, power


class ProfileGrid(namedtuple("ProfileGrid", "x_m y_m v")):
    """Rectangular sample grid, rows by y; v is NaN outside the wetted region."""

    __slots__ = ()

    def write_csv(self, stream) -> None:
        stream.write("x_mm,y_mm,v_norm\n")
        for yv, row in zip(self.y_m, self.v):
            for xv, value in zip(self.x_m, row):
                stream.write(f"{1000.0 * xv!r},{1000.0 * yv!r},{value!r}\n")


def _linspace(start: float, stop: float, num: int) -> list:
    """numpy.linspace(start, stop, num) in plain floats."""
    step = (stop - start) / (num - 1)
    return [k * step + start for k in range(num - 1)] + [stop]


def profile_grid(model: ProfileModel, nx: int, ny: int) -> ProfileGrid:
    """Sample v/v_max on an nx-by-ny grid spanning the bore width and depth."""
    if nx < 2 or ny < 2:
        raise OutOfRangeError(f"grid needs at least 2 points per axis, got {nx}x{ny}")
    r = model.pipe.radius_m
    xs = _linspace(-r, r, nx)
    xs = [0.5 * (a - b) for a, b in zip(xs, xs[::-1])]  # force exact mirror symmetry
    ys = _linspace(0.0, model.level.level_m, ny)
    row = _velocity(model)[0]
    v = [[row(_ONE_POINT, y, x) if x**2 + (y - r) ** 2 <= r * r * (1.0 + 1e-12) else math.nan
          for x in xs] for y in ys]
    return ProfileGrid(x_m=xs, y_m=ys, v=v)
