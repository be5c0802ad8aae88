"""Flow Profile Correction Factor: profile integrals, tabulation, and the
fitted polynomial used at run time.

The correction factor is the area-mean normalized velocity divided by the
chord-mean normalized velocity at the sensor height. Both integrals run on
substitution-graded coordinates (sine maps clustering nodes at the curved
wall) so the near-wall algebraic behavior does not stall refinement.
"""

import math

from ._numpy import np
from ._record import record
from .errors import (
    DegenerateProfileError,
    DryPathError,
    OutOfRangeError,
    PartialFlowError,
)
from .geometry import PipeGeometry, WaterLevel, chord_half_width, segment_area
from .profile import EntropyParams, ProfileModel, evaluate_velocity, point_velocity
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, point_integrate, unit_integrate

# The degree of the correction polynomial: the paper fits c0..c6.
POLY_DEGREE = 6


@record
class FpcfPolynomial:
    """Power-basis coefficients c0..cN over level in mm, with validity range."""

    coeffs: tuple[float, ...]
    h_min_mm: float
    h_max_mm: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.coeffs)):
            raise OutOfRangeError(f"FPCF coefficients must be finite, got {self.coeffs!r}")
        if not -math.inf < self.h_min_mm < self.h_max_mm < math.inf:
            raise OutOfRangeError(
                f"invalid validity range [{self.h_min_mm!r}, {self.h_max_mm!r}]"
            )

    def __call__(self, level_mm):
        """c0 + c1*H + ... + cN*H^N for a level or an array of levels in mm, unguarded:
        checking ``h_min_mm <= H <= h_max_mm`` is the caller's."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * level_mm + c
        return acc


@record
class FitResult:
    polynomial: FpcfPolynomial
    rms_residual: float
    max_residual: float


def _ratio(model: ProfileModel, chord_height_m: float, v_line: float, v_area: float) -> float:
    ratio = v_area / v_line if v_line > 0 else math.nan
    if not 0 < ratio < math.inf:
        raise DegenerateProfileError(
            f"FPCF undefined at Y={chord_height_m:g} m, H={model.level.level_m:g} m: area mean "
            f"{v_area:g} over chord mean {v_line:g} is not finite and positive"
        )
    return ratio


# Each mean is written once, for both quadrature rules: ``lib`` is ``math`` or numpy,
# ``velocity(x, y)`` the model's v/v_max and ``integrate`` the rule.
def _chord_mean(model, chord_height_m, quad, lib, velocity, integrate) -> float:
    """The chord must be wet: at the water line (Y = H) it still is. The integrand
    is even in x by the |x| convention, so the half chord [0, w] is mapped onto
    [0, 1] by the graded map x = w sin(pi u / 2)."""
    if chord_height_m <= 0:
        raise OutOfRangeError(f"chord height must be positive, got {chord_height_m!r}")
    if chord_height_m > model.level.level_m:
        raise DryPathError(
            f"chord at {chord_height_m:g} m is above the water line "
            f"({model.level.level_m:g} m)"
        )
    w = chord_half_width(chord_height_m, model.pipe)

    def integrand(u):
        angle = 0.5 * math.pi * u
        return velocity(w * lib.sin(angle), chord_height_m) * (0.5 * math.pi * lib.cos(angle))

    value, _ = integrate(integrand, spec=quad)
    return value


def _area_mean(model, quad, lib, velocity, integrate) -> float:
    """One tensor-product rule over the graded maps y = H sin^2(pi t / 2) and
    x = w(y) sin(pi u / 2), which cover the half segment x >= 0 (the
    integrand is even in x). The t panels end where the centreline dip
    height h' and the clamp height 2h' fall below the surface: the profile
    has kinks there."""
    height, diameter, dip = model.level.level_m, model.pipe.diameter_m, model.dip_height_m
    if height <= 0:
        raise OutOfRangeError("area mean undefined for an empty pipe")
    kinks = [2.0 / math.pi * math.asin(math.sqrt(z / height))
             for z in (dip, 2.0 * dip) if z < height]

    def row(t):  # the integrand over u on the row y(t)
        y = height * lib.sin(0.5 * math.pi * t) ** 2
        w = lib.sqrt(y * (diameter - y))
        jac = w * height * math.pi * lib.sin(math.pi * t)
        return lambda u: velocity(w * lib.sin(0.5 * math.pi * u), y) * (
            0.5 * math.pi * (jac * lib.cos(0.5 * math.pi * u)))

    value, _ = integrate(row, (kinks, ()), quad)
    return value / segment_area(model.level, model.pipe)


def _array_rule(model: ProfileModel):
    """The array rule's (lib, velocity, integrate): ``evaluate_velocity`` and
    ``unit_integrate`` are looked up when a mean runs, so that they can be replaced."""
    return np, lambda x, y: evaluate_velocity(model, x, y), unit_integrate


def mean_chord_velocity(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Mean of v/v_max along the horizontal chord at the sensor height."""
    return _chord_mean(model, chord_height_m, quad, *_array_rule(model))


def mean_area_velocity(model: ProfileModel, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mean of v/v_max over the wetted segment."""
    return _area_mean(model, quad, *_array_rule(model))


def fpcf(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Correction factor: area-mean over chord-mean normalized velocity.

    Every factor this returns is finite and positive, the only kind a flow can be
    corrected by; a profile that gives any other raises ``DegenerateProfileError``.
    """
    return _ratio(model, chord_height_m, mean_chord_velocity(model, chord_height_m, quad),
                  mean_area_velocity(model, quad))


def point_fpcf(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """``fpcf`` by the point rule, on the same means and checks, to ~1e-15 and without
    numpy: one level costs a few ms, against ~0.1 s to load numpy. A table of levels
    runs ``fpcf``, the faster of the two per level."""
    rule = math, point_velocity(model), point_integrate
    return _ratio(model, chord_height_m, _chord_mean(model, chord_height_m, quad, *rule),
                  _area_mean(model, quad, *rule))


def table_levels(h_min_mm: float, h_max_mm: float, step_mm: float) -> int:
    """How many levels ``tabulate_fpcf`` takes from h_min to h_max in steps of step."""
    return int((h_max_mm - h_min_mm) / step_mm + 1e-9) + 1


def tabulate_fpcf(
    pipe: PipeGeometry,
    params: EntropyParams,
    chord_height_mm: float,
    h_min_mm: float,
    h_max_mm: float,
    step_mm: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[tuple[float, float]]:
    """``(level_mm, fpcf)`` at regularly spaced levels from h_min upward.

    The first level may equal the chord height (chord at the surface);
    levels below it are rejected since the chord would be dry.
    """
    for name, value in (("chord_height_mm", chord_height_mm), ("h_min_mm", h_min_mm),
                        ("h_max_mm", h_max_mm), ("step_mm", step_mm)):
        if not math.isfinite(value):
            raise OutOfRangeError(f"{name} must be finite, got {value!r}")
    if h_min_mm < chord_height_mm:
        raise OutOfRangeError(
            f"tabulation start {h_min_mm:g} mm is below the chord height "
            f"{chord_height_mm:g} mm"
        )
    if step_mm <= 0:
        raise OutOfRangeError(f"step must be positive, got {step_mm!r}")
    if h_max_mm < h_min_mm:
        raise OutOfRangeError("h_max_mm must be >= h_min_mm")

    table = []
    for k in range(table_levels(h_min_mm, h_max_mm, step_mm)):
        level_mm = h_min_mm + k * step_mm
        model = ProfileModel(pipe=pipe, level=WaterLevel(level_mm / 1000.0), params=params)
        try:
            table.append((level_mm, fpcf(model, chord_height_mm / 1000.0, quad)))
        except PartialFlowError as exc:
            raise PartialFlowError(
                f"FPCF tabulation failed at H = {level_mm:g} mm: {exc}"
            ) from exc
    return table


def fit_polynomial(samples) -> FitResult:
    """Least-squares degree-``POLY_DEGREE`` polynomial of FPCF against level (mm),
    fitted to ``(level_mm, fpcf)`` pairs such as ``tabulate_fpcf`` returns. Fitted on
    the scaled abscissa H/H_max and rescaled back, since raw mm^6 terms
    span ~14 orders of magnitude. Residual diagnostics are computed from
    the returned (rescaled) polynomial so the fit/eval round trip is exact
    by construction.
    """
    levels, values = np.array([(h, f) for h, f in samples], dtype=float).reshape(-1, 2).T
    if len(levels) <= POLY_DEGREE:
        raise OutOfRangeError(
            f"need more than {POLY_DEGREE} samples for a degree-{POLY_DEGREE} fit, "
            f"got {len(levels)}"
        )
    if not (np.isfinite(levels).all() and np.isfinite(values).all()):
        raise OutOfRangeError("FPCF samples must have finite levels and values")
    scale = float(np.max(np.abs(levels)))
    if scale <= 0:
        raise OutOfRangeError("sample levels must not all be zero")

    vander = np.vander(levels / scale, POLY_DEGREE + 1, increasing=True)
    coeffs_scaled, _, rank, _ = np.linalg.lstsq(vander, values, rcond=None)
    if rank < POLY_DEGREE + 1:
        raise PartialFlowError(
            f"rank-deficient fit (rank {rank} < {POLY_DEGREE + 1}): "
            "insufficient or collinear samples"
        )
    coeffs = tuple(float(c / scale**k) for k, c in enumerate(coeffs_scaled))
    poly = FpcfPolynomial(coeffs, float(levels.min()), float(levels.max()))

    residuals = poly(levels) - values
    return FitResult(
        polynomial=poly,
        rms_residual=float(np.sqrt(np.mean(residuals**2))),
        max_residual=float(np.max(np.abs(residuals))),
    )
