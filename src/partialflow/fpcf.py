"""Flow Profile Correction Factor at design time: profile integrals, tabulation and
the polynomial fit, which ``config.FpcfPolynomial`` applies at run time.

The correction factor is the area-mean normalized velocity divided by the
chord-mean normalized velocity at the sensor height. Both integrals run on
substitution-graded coordinates (sine maps clustering nodes at the curved
wall) so the near-wall algebraic behavior does not stall refinement.
"""

import math
import sys
from operator import mul

from .config import POLY_DEGREE, FitResult, FpcfPolynomial, lowest_chord_mm, table_levels
from .errors import (ConfigError, DegenerateProfileError, DryPathError, OutOfRangeError,
                     PartialFlowError)
from .geometry import WaterLevel, chord_half_width, segment_area
from .profile import ProfileModel, _velocity
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, _axis


def _u_nodes(n_panels: int, power: float) -> list[tuple[float, float, float]]:
    """An estimate's nodes along a row, on the graded map x = w sin(pi u / 2), worked out
    once for every row: (sin, sin^power, weight times dx/du over w)."""
    nodes = []
    for u, weight in zip(*_axis((), n_panels)):
        angle = 0.5 * math.pi * u
        sin = math.sin(angle)
        nodes.append((sin, sin**power, 0.5 * math.pi * weight * math.cos(angle)))
    return nodes


def mean_chord_velocity(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Mean of v/v_max along the horizontal chord at the sensor height, over the half chord
    [0, w] (v is even in x). The chord must be wet: at the water line (Y = H) it still is."""
    if chord_height_m <= 0:
        raise OutOfRangeError(f"chord height must be positive, got {chord_height_m!r}")
    if chord_height_m > model.level.level_m:
        raise DryPathError(
            f"chord at {chord_height_m:g} m is above the water line "
            f"({model.level.level_m:g} m)"
        )
    w = chord_half_width(chord_height_m, model.pipe)
    row, power = _velocity(model)
    value, _ = quad.refine(lambda n: row(_u_nodes(n, power), chord_height_m, w))
    return value


def mean_area_velocity(model: ProfileModel, quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Mean of v/v_max over the wetted segment: rows y = H sin^2(pi t / 2), each a half
    chord as in ``mean_chord_velocity``, cover the half segment x >= 0 (the integrand is
    even in x). The t panels end where the centreline dip height h' and the clamp height
    2h' fall below the surface: the profile has kinks there. Beyond two panels per piece
    the u axis, along each row, doubles first: it carries most of the error."""
    height, diameter, dip = model.level.level_m, model.pipe.diameter_m, model.dip_height_m
    area = segment_area(model.level, model.pipe)  # 0 wherever the wetted angle rounds to 0
    if not area > 0:
        raise OutOfRangeError("area mean undefined for an empty pipe")
    kinks = [2.0 / math.pi * math.asin(math.sqrt(z / height))
             for z in (dip, 2.0 * dip) if z < height]
    row, power = _velocity(model)

    def estimate(n_panels: int) -> float:  # n_panels u panels, and half as many t panels past 2
        nodes, total = _u_nodes(n_panels, power), 0.0
        for t, weight in zip(*_axis(kinks, n_panels if n_panels <= 2 else n_panels // 2)):
            y = height * math.sin(0.5 * math.pi * t) ** 2
            w = math.sqrt(y * (diameter - y))
            total += (weight * w * height * math.pi * math.sin(math.pi * t)
                      * row(nodes, y, w))
        return total

    value, _ = quad.refine(estimate)
    return value / area


def fpcf(
    model: ProfileModel, chord_height_m: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Correction factor: area-mean over chord-mean normalized velocity.

    Every factor this returns is finite and positive, the only kind a flow can be
    corrected by; a profile that gives any other raises ``DegenerateProfileError``.
    """
    v_line = mean_chord_velocity(model, chord_height_m, quad)
    v_area = mean_area_velocity(model, quad)
    ratio = v_area / v_line if v_line > 0 else math.nan
    if not 0 < ratio < math.inf:
        raise DegenerateProfileError(
            f"FPCF undefined at Y={chord_height_m:g} m, H={model.level.level_m:g} m: area mean "
            f"{v_area:g} over chord mean {v_line:g} is not finite and positive")
    return ratio


def tabulate_fpcf(config) -> list[tuple[float, float]]:
    """A ``RunConfig``'s ``(level_mm, fpcf)`` table: at the lowest chord, from
    ``fpcf.h_min_mm`` to ``fpcf.h_max_mm`` in steps of ``fpcf.step_mm`` (``table_levels``),
    a range the config has checked. A level with no FPCF is the config's to change,
    so it is a ConfigError that names the setting to change: the range if a level
    above the first fails, else the profile."""
    chord_mm, lo, hi = lowest_chord_mm(config), config.fpcf_h_min_mm, config.fpcf_h_max_mm
    table = []
    for k, level_mm in enumerate(table_levels(lo, hi, config.fpcf_step_mm)):
        try:
            model = ProfileModel(config.pipe, WaterLevel(level_mm / 1000.0), config.params)
            table.append((level_mm, fpcf(model, chord_mm / 1000.0, config.quad)))
        except PartialFlowError as exc:
            if k:
                advice = (f"the chord at {chord_mm:g} mm needs fpcf.h_max_mm ({hi:g}) below "
                          "that level")
            else:  # no range may start above fpcf.h_min_mm
                advice = (f"the profile (entropy.m = {config.params.m:g}, entropy.q = "
                          f"{config.params.q:g}) gives none at the first level, "
                          f"fpcf.h_min_mm ({lo:g})")
            raise ConfigError(f"FPCF tabulation failed at H = {level_mm:g} mm: {exc}; "
                              f"{advice}") from exc
    return table


def fit_polynomial(samples) -> FitResult:
    """Least-squares degree-``POLY_DEGREE`` polynomial of FPCF against level (mm),
    fitted to ``(level_mm, fpcf)`` pairs such as ``tabulate_fpcf`` returns. Fitted on
    the scaled abscissa H/H_max and rescaled back, since raw mm^6 terms span ~14 orders
    of magnitude, by Householder QR of the scaled Vandermonde matrix (Golub & Van Loan,
    Matrix Computations, 5.3). Residual diagnostics are computed from the returned
    (rescaled) polynomial so the fit/eval round trip is exact by construction.
    """
    samples = [(float(h), float(f)) for h, f in samples]
    n_coeffs = POLY_DEGREE + 1
    if len(samples) <= POLY_DEGREE:
        raise OutOfRangeError(
            f"need more than {POLY_DEGREE} samples for a degree-{POLY_DEGREE} fit, "
            f"got {len(samples)}"
        )
    if not all(map(math.isfinite, (x for pair in samples for x in pair))):
        raise OutOfRangeError("FPCF samples must have finite levels and values")
    scale = max(abs(h) for h, _ in samples)
    if scale <= 0:
        raise OutOfRangeError("sample levels must not all be zero")

    # [a | b] column by column: the powers of H/H_max, then the values
    cols = [[(h / scale) ** k for h, _ in samples] for k in range(n_coeffs)]
    cols.append([f for _, f in samples])
    diagonal = []
    for k in range(n_coeffs):  # a reflection takes column k from row k down onto row k
        x = cols[k][k:]
        alpha = math.copysign(math.sqrt(math.fsum(e * e for e in x)), -x[0])
        v = [x[0] - alpha, *x[1:]]
        vv = math.fsum(e * e for e in v)
        diagonal.append(alpha)
        for col in cols[k + 1:] if vv else ():
            factor = 2.0 * math.fsum(map(mul, v, col[k:])) / vv
            col[k:] = [c - factor * e for c, e in zip(col[k:], v)]
    tol = len(samples) * sys.float_info.epsilon * abs(diagonal[0])
    rank = sum(abs(d) > tol for d in diagonal)
    if rank < n_coeffs:
        raise PartialFlowError(
            f"rank-deficient fit (rank {rank} < {n_coeffs}): insufficient or collinear samples"
        )
    scaled = [0.0] * n_coeffs
    rhs = cols[-1]
    for k in reversed(range(n_coeffs)):  # back substitution on R
        scaled[k] = (rhs[k] - math.fsum(cols[j][k] * scaled[j]
                                        for j in range(k + 1, n_coeffs))) / diagonal[k]
    coeffs = tuple(c / scale**k for k, c in enumerate(scaled))
    levels = [h for h, _ in samples]
    poly = FpcfPolynomial(coeffs, min(levels), max(levels))

    residuals = [poly(h) - f for h, f in samples]
    return FitResult(
        polynomial=poly,
        rms_residual=math.sqrt(math.fsum(r * r for r in residuals) / len(residuals)),
        max_residual=max(map(abs, residuals)),
    )
