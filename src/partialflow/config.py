"""Flat key/value run configuration.

One ``key = value`` pair per line, ``#`` comments, no sections. Floats are
emitted with ``repr`` so a written document parses back bit-exactly. A key
left out takes the default of the record field it sets.
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

# The reference rig: a 250 mm pipe, its chords crossed at 45 degrees.
_PIPE_DIAMETER_MM = 250.0
_BEAM_ANGLE_DEG = 45.0


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


def _wall_to_wall(height_mm: float, angle_rad: float, pipe: PipeGeometry) -> float:
    """Path length between wall-mounted transducers: the beam spans the full chord."""
    return 2.0 * chord_half_width(height_mm / 1000.0, pipe) / math.sin(angle_rad)


def _default_chords(pipe: PipeGeometry) -> tuple[ChordSpec, ...]:
    # Two crossed paths at the same height; the crossing cancels
    # transverse-flow bias, so each behaves as an ordinary weighted chord.
    angle = math.radians(_BEAM_ANGLE_DEG)
    path = _wall_to_wall(50.0, angle, pipe)
    return ChordSpec("a", 50.0, path, angle), ChordSpec("b", 50.0, path, angle)


def default_config() -> RunConfig:
    pipe = PipeGeometry(_PIPE_DIAMETER_MM / 1000.0)
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


def _parse_mm_as_m(raw: str, key: str) -> float:
    return _parse_float(raw, key) / 1000.0


# Each scalar key: the record and field it sets, and the parser of its value.
_SCALARS = {
    "pipe.diameter_mm": (PipeGeometry, "diameter_m", _parse_mm_as_m),
    "entropy.m": (EntropyParams, "m", _parse_float),
    "entropy.q": (EntropyParams, "q", _parse_float),
    "quad.rel_tol": (QuadratureSpec, "rel_tol", _parse_float),
    "quad.max_depth": (QuadratureSpec, "max_depth", _parse_int),
    "quad.nodes": (QuadratureSpec, "nodes", _parse_int),
    "clog.slope_mps_per_mm": (DecisionBoundary, "slope_mps_per_mm", _parse_float),
    "clog.intercept_mps": (DecisionBoundary, "intercept_mps", _parse_float),
    "fpcf.h_min_mm": (RunConfig, "fpcf_h_min_mm", _parse_float),
    "fpcf.h_max_mm": (RunConfig, "fpcf_h_max_mm", _parse_float),
    "fpcf.step_mm": (RunConfig, "fpcf_step_mm", _parse_float),
    "fpcf.derive": (RunConfig, "fpcf_derive", _parse_bool),
    "calibration.factor": (RunConfig, "k_cal", _parse_float),
    "clog.debounce": (RunConfig, "debounce", _parse_int),
}

_COEFF_KEYS = tuple(f"fpcf.c{k}" for k in range(_POLY_DEGREE + 1))

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
    unknown = set(pairs) - _SCALARS.keys() - set(_COEFF_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")

    try:
        given = {rec: {} for rec, _, _ in _SCALARS.values()}
        for key, (rec, field, parse) in _SCALARS.items():
            if key in pairs:
                given[rec][field] = parse(pairs[key], key)
        pipe = PipeGeometry(given[PipeGeometry].get("diameter_m", _PIPE_DIAMETER_MM / 1000.0))

        chords: list[ChordSpec] = []
        for chord_id, fields in sorted(chord_fields.items()):
            if "height_mm" not in fields:
                raise ConfigError(f"chord.{chord_id}: height_mm is required")
            values = {k: _parse_float(v, f"chord.{chord_id}.{k}") for k, v in fields.items()}
            angle = math.radians(values.pop("beam_angle_deg", _BEAM_ANGLE_DEG))
            if "path_length_m" not in values:
                values["path_length_m"] = _wall_to_wall(values["height_mm"], angle, pipe)
            chords.append(ChordSpec(chord_id, beam_angle_rad=angle, **values))

        run = given[RunConfig]
        poly = None
        present = [k for k in _COEFF_KEYS if k in pairs]
        if present:
            if len(present) != len(_COEFF_KEYS):
                missing = sorted(set(_COEFF_KEYS) - set(present))
                raise ConfigError(f"incomplete FPCF coefficients, missing: {', '.join(missing)}")
            poly = FpcfPolynomial(tuple(_parse_float(pairs[k], k) for k in _COEFF_KEYS),
                                  run.get("fpcf_h_min_mm", RunConfig.fpcf_h_min_mm),
                                  run.get("fpcf_h_max_mm", RunConfig.fpcf_h_max_mm))

        config = RunConfig(
            pipe=pipe,
            params=EntropyParams(**given[EntropyParams]),
            chords=tuple(chords) or _default_chords(pipe),
            poly=poly,
            boundary=DecisionBoundary(**given[DecisionBoundary]),
            quad=QuadratureSpec(**given[QuadratureSpec]),
            **run,
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
    crown_mm = 1000.0 * config.pipe.diameter_m
    for c in config.chords:
        if c.height_mm > crown_mm:
            raise ConfigError(f"chord.{c.chord_id}.height_mm = {c.height_mm:g} lies above the "
                              f"pipe crown at {crown_mm:g} mm")
    if config.poly is not None and config.fpcf_derive:
        raise ConfigError("fpcf.derive = true and fpcf.c0..c6 both set the FPCF polynomial; "
                          "give one of them")
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
    samples = tabulate_fpcf(config.pipe, config.params, min(c.height_mm for c in config.chords),
                            config.fpcf_h_min_mm, config.fpcf_h_max_mm, config.fpcf_step_mm,
                            config.quad)
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
