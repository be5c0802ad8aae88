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
from .fpcf import POLY_DEGREE, FitResult, FpcfPolynomial, fit_polynomial, tabulate_fpcf
from .geometry import PipeGeometry, chord_half_width
from .measurement import ChordSpec
from .profile import EntropyParams
from .quadrature import DEFAULT_QUADRATURE

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
    fpcf_h_max_mm: Optional[float] = None  # None: the pipe crown
    fpcf_step_mm: float = 10.0
    k_cal: float = 1.0
    boundary: DecisionBoundary = DecisionBoundary()
    debounce: int = 5
    quad = DEFAULT_QUADRATURE  # not a field: every run integrates to one tolerance

    def __post_init__(self):
        if self.fpcf_h_max_mm is None:
            object.__setattr__(self, "fpcf_h_max_mm", 1000.0 * self.pipe.diameter_m)


def default_config() -> RunConfig:
    return parse_config("")


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
    "clog.slope_mps_per_mm": (DecisionBoundary, "slope_mps_per_mm", _parse_float),
    "clog.intercept_mps": (DecisionBoundary, "intercept_mps", _parse_float),
    "fpcf.h_min_mm": (RunConfig, "fpcf_h_min_mm", _parse_float),
    "fpcf.h_max_mm": (RunConfig, "fpcf_h_max_mm", _parse_float),
    "fpcf.step_mm": (RunConfig, "fpcf_step_mm", _parse_float),
    "fpcf.derive": (RunConfig, "fpcf_derive", _parse_bool),
    "calibration.factor": (RunConfig, "k_cal", _parse_float),
    "clog.debounce": (RunConfig, "debounce", _parse_int),
}

_COEFF_KEYS = tuple(f"fpcf.c{k}" for k in range(POLY_DEGREE + 1))

_CHORD_FIELDS = ("height_mm", "path_length_m", "beam_angle_deg", "weight")

# Without chord keys: two crossed paths at the same height. The crossing cancels
# transverse-flow bias, so each behaves as an ordinary weighted chord.
_DEFAULT_CHORDS = {"a": {"height_mm": "50"}, "b": {"height_mm": "50"}}


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
        crown_mm = 1000.0 * pipe.diameter_m
        for chord_id, fields in sorted((chord_fields or _DEFAULT_CHORDS).items()):
            if "height_mm" not in fields:
                raise ConfigError(f"chord.{chord_id}: height_mm is required")
            values = {k: _parse_float(v, f"chord.{chord_id}.{k}") for k, v in fields.items()}
            key, height = f"chord.{chord_id}.height_mm", values["height_mm"]
            if not 0 < height < math.inf:
                raise ConfigError(f"chord height must be finite and positive, got {height!r} "
                                  f"for {key}")
            above = height > crown_mm  # at the crown, a derived wall-to-wall path has no length
            if above or (height == crown_mm and "path_length_m" not in values):
                raise ConfigError(f"{key} = {height:g} lies {'above' if above else 'at'} the pipe "
                                  f"crown at {crown_mm:g} mm")
            angle = math.radians(values.pop("beam_angle_deg", _BEAM_ANGLE_DEG))
            if "path_length_m" not in values:  # wall-mounted: the beam spans the full chord
                half_width = chord_half_width(height / 1000.0, pipe)
                values["path_length_m"] = 2.0 * half_width / math.sin(angle)
            chords.append(ChordSpec(chord_id, beam_angle_rad=angle, **values))

        run = given[RunConfig]
        present = [k for k in _COEFF_KEYS if k in pairs]
        if present and len(present) != len(_COEFF_KEYS):
            missing = sorted(set(_COEFF_KEYS) - set(present))
            raise ConfigError(f"incomplete FPCF coefficients, missing: {', '.join(missing)}")

        if given[DecisionBoundary]:  # else the RunConfig default
            run["boundary"] = DecisionBoundary(**given[DecisionBoundary])
        config = RunConfig(pipe=pipe, params=EntropyParams(**given[EntropyParams]),
                           chords=tuple(chords), **run)
        if present:  # valid over the run's FPCF range, as a derived polynomial is
            coeffs = tuple(_parse_float(pairs[k], k) for k in _COEFF_KEYS)
            config = RunConfig(**{**vars(config), "poly": FpcfPolynomial(
                coeffs, config.fpcf_h_min_mm, config.fpcf_h_max_mm)})
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
    if not any(c.weight for c in config.chords):
        keys = ", ".join(f"chord.{c.chord_id}.weight" for c in config.chords)
        raise ConfigError(f"every chord weight is 0 ({keys}): no chord counts toward the flow")
    lo, hi, step = config.fpcf_h_min_mm, config.fpcf_h_max_mm, config.fpcf_step_mm
    for key, value in (("fpcf.h_min_mm", lo), ("fpcf.h_max_mm", hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if hi < lo:
        raise ConfigError(f"fpcf.h_max_mm = {hi:g} lies below fpcf.h_min_mm = {lo:g}")
    crown_mm = 1000.0 * config.pipe.diameter_m
    if hi > crown_mm:
        raise ConfigError(f"fpcf.h_max_mm = {hi:g} lies above the pipe crown at {crown_mm:g} mm")
    if not 0 < step < math.inf:
        raise ConfigError(f"fpcf.step_mm must be finite and positive, got {step!r}")
    if config.poly is not None and config.fpcf_derive:
        raise ConfigError("fpcf.derive = true and fpcf.c0..c6 both set the FPCF polynomial; "
                          "give one of them")
    if config.poly is None and not config.fpcf_derive:
        return
    # a parsed polynomial's range starts at fpcf.h_min_mm, as a derived one does
    _lowest_chord_mm(config)
    heights = sorted({c.height_mm for c in config.chords})
    if len(heights) > 1:
        raise ConfigError("one FPCF polynomial corrects chords at one height only, got "
                          f"chords at {', '.join(f'{h:g}' for h in heights)} mm")


def _lowest_chord_mm(config: RunConfig) -> float:
    """The lowest chord's height, checked to lie at or below ``fpcf.h_min_mm``."""
    lowest, lo = min(c.height_mm for c in config.chords), config.fpcf_h_min_mm
    if lo < lowest:
        raise ConfigError(f"fpcf.h_min_mm = {lo:g} lies below the lowest chord at {lowest:g} mm")
    return lowest


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
    fit = fit_polynomial(fpcf_table(config))
    return fit.polynomial, fit


def fpcf_table(config: RunConfig) -> list[tuple[float, float]]:
    """The run's FPCF table: at the lowest chord, from ``fpcf.h_min_mm`` to
    ``fpcf.h_max_mm`` in steps of ``fpcf.step_mm``."""
    return tabulate_fpcf(config.pipe, config.params, _lowest_chord_mm(config),
                         config.fpcf_h_min_mm, config.fpcf_h_max_mm, config.fpcf_step_mm,
                         config.quad)


def format_fit_document(fit: FitResult) -> str:
    """Config-compatible rendering of a fit: paste into a run config as-is."""
    poly = fit.polynomial
    lines = [f"fpcf.c{k} = {c!r}" for k, c in enumerate(poly.coeffs)]
    lines.append(f"fpcf.h_min_mm = {poly.h_min_mm!r}")
    lines.append(f"fpcf.h_max_mm = {poly.h_max_mm!r}")
    lines.append(f"# fpcf.rms_residual = {fit.rms_residual!r}")
    lines.append(f"# fpcf.max_residual = {fit.max_residual!r}")
    return "\n".join(lines) + "\n"
