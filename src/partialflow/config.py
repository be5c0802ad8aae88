"""Flat key/value run configuration.

One ``key = value`` pair per line, ``#`` comments, no sections. Floats are
emitted with ``repr`` so a written document parses back bit-exactly.
"""

import math
from typing import Optional

from ._record import record
from .clogging import DecisionBoundary
from .errors import ConfigError
from .fpcf import FitResult, FpcfPolynomial, fit_polynomial, tabulate_fpcf
from .geometry import PipeGeometry, chord_half_width
from .measurement import ChordSpec
from .profile import EntropyParams
from .quadrature import QuadratureSpec

_POLY_DEGREE = 6


@record
class RunConfig:
    pipe: PipeGeometry
    params: EntropyParams
    chords: tuple[ChordSpec, ...]
    poly: Optional[FpcfPolynomial] = None
    fpcf_derive: bool = False
    fpcf_h_min_mm: float = 50.0
    fpcf_h_max_mm: float = 250.0
    fpcf_step_mm: float = 10.0
    k_cal: float = 1.0
    boundary: DecisionBoundary = DecisionBoundary()
    debounce: int = 5
    quad: QuadratureSpec = QuadratureSpec()


def _default_chords(pipe: PipeGeometry) -> tuple[ChordSpec, ...]:
    # Two crossed paths at the same height; the crossing cancels
    # transverse-flow bias, so each behaves as an ordinary weighted chord.
    height_mm = 50.0
    angle = math.radians(45.0)
    width = 2.0 * chord_half_width(height_mm / 1000.0, pipe)
    path = width / math.sin(angle)
    return (
        ChordSpec("a", height_mm, path, angle, 1.0),
        ChordSpec("b", height_mm, path, angle, 1.0),
    )


def default_config() -> RunConfig:
    pipe = PipeGeometry(0.250)
    return RunConfig(pipe=pipe, params=EntropyParams(), chords=_default_chords(pipe))


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


_SCALAR_KEYS = {
    "pipe.diameter_mm",
    "entropy.m",
    "entropy.q",
    "calibration.factor",
    "quad.rel_tol",
    "quad.max_depth",
    "quad.nodes",
    "fpcf.derive",
    "fpcf.h_min_mm",
    "fpcf.h_max_mm",
    "fpcf.step_mm",
    "clog.slope_mps_per_mm",
    "clog.intercept_mps",
    "clog.debounce",
} | {f"fpcf.c{k}" for k in range(_POLY_DEGREE + 1)}

_CHORD_FIELDS = ("height_mm", "path_length_m", "beam_angle_deg", "weight")


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document; unknown or duplicate keys are errors."""
    pairs: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        pairs[key] = value

    chord_fields: dict[str, dict[str, str]] = {}
    for key in list(pairs):
        if key.startswith("chord."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _CHORD_FIELDS:
                raise ConfigError(f"unknown chord key {key!r}")
            chord_fields.setdefault(parts[1], {})[parts[2]] = pairs.pop(key)
    unknown = set(pairs) - _SCALAR_KEYS
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")

    try:
        pipe = PipeGeometry(_parse_float(pairs.get("pipe.diameter_mm", "250"), "pipe.diameter_mm") / 1000.0)
        params = EntropyParams(
            m=_parse_float(pairs.get("entropy.m", "0.89"), "entropy.m"),
            q=_parse_float(pairs.get("entropy.q", "1.15"), "entropy.q"),
        )
        quad = QuadratureSpec(
            rel_tol=_parse_float(pairs.get("quad.rel_tol", "1e-6"), "quad.rel_tol"),
            max_depth=_parse_int(pairs.get("quad.max_depth", "16"), "quad.max_depth"),
            nodes=_parse_int(pairs.get("quad.nodes", "15"), "quad.nodes"),
        )
        boundary = DecisionBoundary(
            slope_mps_per_mm=_parse_float(
                pairs.get("clog.slope_mps_per_mm", "0.00321"), "clog.slope_mps_per_mm"
            ),
            intercept_mps=_parse_float(
                pairs.get("clog.intercept_mps", "-0.02"), "clog.intercept_mps"
            ),
        )

        chords: list[ChordSpec] = []
        for chord_id in sorted(chord_fields):
            fields = chord_fields[chord_id]
            if "height_mm" not in fields:
                raise ConfigError(f"chord.{chord_id}: height_mm is required")
            height_mm = _parse_float(fields["height_mm"], f"chord.{chord_id}.height_mm")
            angle = math.radians(
                _parse_float(fields.get("beam_angle_deg", "45"), f"chord.{chord_id}.beam_angle_deg")
            )
            if "path_length_m" in fields:
                path = _parse_float(fields["path_length_m"], f"chord.{chord_id}.path_length_m")
            else:
                # Wall-mounted transducers: the path spans the full chord.
                path = 2.0 * chord_half_width(height_mm / 1000.0, pipe) / math.sin(angle)
            weight = _parse_float(fields.get("weight", "1"), f"chord.{chord_id}.weight")
            chords.append(ChordSpec(chord_id, height_mm, path, angle, weight))
        if not chords:
            chords = list(_default_chords(pipe))

        h_min = _parse_float(pairs.get("fpcf.h_min_mm", "50"), "fpcf.h_min_mm")
        h_max = _parse_float(pairs.get("fpcf.h_max_mm", "250"), "fpcf.h_max_mm")
        step = _parse_float(pairs.get("fpcf.step_mm", "10"), "fpcf.step_mm")

        coeff_keys = [f"fpcf.c{k}" for k in range(_POLY_DEGREE + 1)]
        present = [k for k in coeff_keys if k in pairs]
        poly = None
        if present:
            if len(present) != len(coeff_keys):
                missing = sorted(set(coeff_keys) - set(present))
                raise ConfigError(f"incomplete FPCF coefficients, missing: {', '.join(missing)}")
            coeffs = tuple(_parse_float(pairs[k], k) for k in coeff_keys)
            poly = FpcfPolynomial(coeffs, h_min, h_max)

        config = RunConfig(
            pipe=pipe,
            params=params,
            chords=tuple(chords),
            poly=poly,
            fpcf_derive=_parse_bool(pairs.get("fpcf.derive", "false"), "fpcf.derive"),
            fpcf_h_min_mm=h_min,
            fpcf_h_max_mm=h_max,
            fpcf_step_mm=step,
            k_cal=_parse_float(pairs.get("calibration.factor", "1"), "calibration.factor"),
            boundary=boundary,
            debounce=_parse_int(pairs.get("clog.debounce", "5"), "clog.debounce"),
            quad=quad,
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc

    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if not 0 < config.k_cal < math.inf:
        raise ConfigError(f"calibration.factor must be finite and positive, got {config.k_cal!r}")
    if config.debounce < 1:
        raise ConfigError(f"clog.debounce must be >= 1, got {config.debounce!r}")
    ids = [c.chord_id for c in config.chords]
    if len(ids) != len(set(ids)):
        raise ConfigError(f"duplicate chord ids: {ids}")
    min_height = min(c.height_mm for c in config.chords)
    if config.poly is not None and config.poly.h_min_mm < min_height:
        raise ConfigError(
            f"FPCF range starts at {config.poly.h_min_mm:g} mm, below the lowest "
            f"chord at {min_height:g} mm"
        )
    if config.fpcf_derive and config.fpcf_h_min_mm < min_height:
        raise ConfigError(
            f"FPCF derivation starts at {config.fpcf_h_min_mm:g} mm, below the "
            f"lowest chord at {min_height:g} mm"
        )
    heights = sorted({c.height_mm for c in config.chords})
    if (config.poly is not None or config.fpcf_derive) and len(heights) > 1:
        raise ConfigError("one FPCF polynomial corrects chords at one height only, got "
                          f"chords at {', '.join(f'{h:g}' for h in heights)} mm")


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def resolve_polynomial(config: RunConfig) -> tuple[Optional[FpcfPolynomial], Optional[FitResult]]:
    """The polynomial to run with: explicit coefficients, or derived on demand."""
    if config.poly is not None:
        return config.poly, None
    if not config.fpcf_derive:
        return None, None
    chord_height = min(c.height_mm for c in config.chords)
    samples = tabulate_fpcf(
        config.pipe,
        config.params,
        chord_height,
        config.fpcf_h_min_mm,
        config.fpcf_h_max_mm,
        config.fpcf_step_mm,
        config.quad,
    )
    fit = fit_polynomial(samples, _POLY_DEGREE)
    return fit.polynomial, fit


def format_fit_document(fit: FitResult) -> str:
    """Config-compatible rendering of a fit: paste into a run config as-is."""
    poly = fit.polynomial
    lines = [f"fpcf.c{k} = {c!r}" for k, c in enumerate(poly.coeffs)]
    lines.append(f"fpcf.h_min_mm = {poly.h_min_mm!r}")
    lines.append(f"fpcf.h_max_mm = {poly.h_max_mm!r}")
    lines.append(f"# fpcf.rms_residual = {fit.rms_residual!r}")
    lines.append(f"# fpcf.max_residual = {fit.max_residual!r}")
    return "\n".join(lines) + "\n"
