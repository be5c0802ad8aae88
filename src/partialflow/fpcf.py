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
from .profile import EntropyParams, ProfileModel, evaluate_velocity
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, unit_integrate

# The degree of the correction polynomial: the paper fits c0..c6.
POLY_DEGREE = 6


@record
class FpcfSample:
    """One tabulated correction factor at a level/chord-height pair (mm)."""

    level_mm: float
    chord_height_mm: float
    fpcf: float

    def __post_init__(self):
        if not (math.isfinite(self.level_mm) and 0 < self.fpcf < math.inf):
            raise OutOfRangeError(
                f"FPCF sample at H={self.level_mm!r} mm must be finite and positive: {self.fpcf!r}"
            )
        if not 0 < self.chord_height_mm < math.inf:
            raise OutOfRangeError(f"FPCF sample chord height must be finite and positive, "
                                  f"got {self.chord_height_mm!r}")


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


@record
class FitResult:
    polynomial: FpcfPolynomial
    rms_residual: float
    max_residual: float


def eval_fpcf(poly: FpcfPolynomial, level_mm: float) -> float:
    """Horner evaluation; levels outside the validity range are a guarded error."""
    from .errors import FpcfRangeError

    if level_mm < poly.h_min_mm or level_mm > poly.h_max_mm:
        raise FpcfRangeError(level_mm, poly.h_min_mm, poly.h_max_mm)
    return horner(poly.coeffs, level_mm)


def horner(coeffs, x):
    """c0 + c1*x + ... + cN*x^N for a scalar or an array ``x``, unguarded."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def mean_chord_velocity(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Mean of v/v_max along the horizontal chord at the sensor height.

    The integrand is even in x by the |x| convention, so the half chord
    [0, w] is mapped onto [0, 1] by the graded map x = w sin(pi u / 2). A
    chord exactly at the water line (Y = H) is still evaluable; only
    Y > H is a dry path.
    """
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
        return evaluate_velocity(model, w * np.sin(angle), chord_height_m) * (
            0.5 * math.pi * np.cos(angle)
        )

    value, _ = unit_integrate(integrand, spec=quad)
    return value


def mean_area_velocity(model: ProfileModel, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mean of v/v_max over the wetted segment.

    One tensor-product rule over the graded maps y = H sin^2(pi t / 2) and
    x = w(y) sin(pi u / 2), which cover the half segment x >= 0 (the
    integrand is even in x). The t panels end where the centreline dip
    height h' and the clamp height 2h' fall below the surface: the profile
    has kinks there.
    """
    height = model.level.level_m
    if height <= 0:
        raise OutOfRangeError("area mean undefined for an empty pipe")
    diameter = model.pipe.diameter_m
    dip = model.dip_height_m
    kinks = [2.0 / math.pi * math.asin(math.sqrt(z / height))
             for z in (dip, 2.0 * dip) if z < height]

    def integrand(t, u):
        y = height * np.sin(0.5 * math.pi * t) ** 2
        w = np.sqrt(y * (diameter - y))
        angle = 0.5 * math.pi * u
        x = w[:, None] * np.sin(angle)
        jac = (w * height * math.pi * np.sin(math.pi * t))[:, None] * np.cos(angle)
        return evaluate_velocity(model, x, y[:, None]) * (0.5 * math.pi * jac)

    value, _ = unit_integrate(integrand, (kinks, ()), quad)
    return value / segment_area(model.level, model.pipe)


def fpcf(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Correction factor: area-mean over chord-mean normalized velocity."""
    v_line = mean_chord_velocity(model, chord_height_m, quad)
    if v_line <= 0:
        raise DegenerateProfileError(
            f"chord mean velocity {v_line:g} is not positive at "
            f"Y={chord_height_m:g} m, H={model.level.level_m:g} m"
        )
    return mean_area_velocity(model, quad) / v_line


def tabulate_fpcf(
    pipe: PipeGeometry,
    params: EntropyParams,
    chord_height_mm: float,
    h_min_mm: float,
    h_max_mm: float,
    step_mm: float,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[FpcfSample]:
    """Correction factor at regularly spaced levels from h_min upward.

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

    count = int(math.floor((h_max_mm - h_min_mm) / step_mm + 1e-9)) + 1
    samples = []
    for k in range(count):
        level_mm = h_min_mm + k * step_mm
        model = ProfileModel(pipe=pipe, level=WaterLevel(level_mm / 1000.0), params=params)
        try:
            value = fpcf(model, chord_height_mm / 1000.0, quad)
            samples.append(FpcfSample(level_mm, chord_height_mm, value))
        except PartialFlowError as exc:
            raise PartialFlowError(
                f"FPCF tabulation failed at H = {level_mm:g} mm: {exc}"
            ) from exc
    return samples


def fit_polynomial(samples, degree: int = POLY_DEGREE) -> FitResult:
    """Least-squares polynomial of FPCF against level (mm).

    Accepts FpcfSample objects or plain (level_mm, fpcf) pairs. Fitted on
    the scaled abscissa H/H_max and rescaled back, since raw mm^6 terms
    span ~14 orders of magnitude. Residual diagnostics are computed from
    the returned (rescaled) polynomial so the fit/eval round trip is exact
    by construction.
    """
    if degree < 0:
        raise OutOfRangeError(f"degree must be non-negative, got {degree!r}")
    pairs = [
        (s.level_mm, s.fpcf) if isinstance(s, FpcfSample) else (float(s[0]), float(s[1]))
        for s in samples
    ]
    if len(pairs) <= degree:
        raise OutOfRangeError(
            f"need more than {degree} samples for a degree-{degree} fit, "
            f"got {len(pairs)}"
        )
    levels = np.array([p[0] for p in pairs], dtype=float)
    values = np.array([p[1] for p in pairs], dtype=float)
    if not (np.isfinite(levels).all() and np.isfinite(values).all()):
        raise OutOfRangeError("FPCF samples must have finite levels and values")
    scale = float(np.max(np.abs(levels)))
    if scale <= 0:
        raise OutOfRangeError("sample levels must not all be zero")

    vander = np.vander(levels / scale, degree + 1, increasing=True)
    coeffs_scaled, _, rank, _ = np.linalg.lstsq(vander, values, rcond=None)
    if rank < degree + 1:
        raise PartialFlowError(
            f"rank-deficient fit (rank {rank} < {degree + 1}): "
            "insufficient or collinear samples"
        )
    coeffs = tuple(float(c / scale**k) for k, c in enumerate(coeffs_scaled))
    poly = FpcfPolynomial(coeffs, float(levels.min()), float(levels.max()))

    residuals = np.array([eval_fpcf(poly, h) for h in levels]) - values
    return FitResult(
        polynomial=poly,
        rms_residual=float(np.sqrt(np.mean(residuals**2))),
        max_residual=float(np.max(np.abs(residuals))),
    )
