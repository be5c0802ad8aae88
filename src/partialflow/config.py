"""Flat key/value run configuration, and the values a run reads from it.

One ``key = value`` pair per line, ``#`` comments, no sections. Floats are
emitted with ``repr`` so a written document parses back bit-exactly. A key
left out takes the default of the record field it sets.
"""

import math
from collections import namedtuple
from typing import Optional

from ._record import record
from .calibration import _decimal
from .clogging import DecisionBoundary
from .errors import ConfigError, OutOfRangeError
from .geometry import PipeGeometry, chord_half_width
from .measurement import ChordSpec

# The reference rig: a 250 mm pipe, its chords crossed at 45 degrees.
_PIPE_DIAMETER_MM = 250.0
_BEAM_ANGLE_DEG = 45.0

# The degree of the correction polynomial: the paper fits c0..c6.
POLY_DEGREE = 6


@record
class EntropyParams:
    """Entropy parameters M (dimensionless) and q (non-extensive) of the velocity
    distribution; the defaults are the model's calibrated constants."""

    m: float = 0.89
    q: float = 1.15

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

    def __call__(self, level_mm: float) -> float:
        """c0 + c1*H + ... + cN*H^N at a level H in mm, by Horner's rule, unguarded:
        checking ``h_min_mm <= H <= h_max_mm`` is the caller's."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * level_mm + c
        return acc


FitResult = namedtuple("FitResult", "polynomial rms_residual max_residual")


def table_levels(h_min_mm: float, h_max_mm: float, step_mm: float) -> list[float]:
    """The levels ``fpcf.tabulate_fpcf`` takes from h_min to h_max in steps of step; the
    last, which the count's slack can round past h_max, is taken at it."""
    count = int((h_max_mm - h_min_mm) / step_mm + 1e-9) + 1
    return [min(h_min_mm + k * step_mm, h_max_mm) for k in range(count)]


def lowest_chord_mm(config) -> float:
    """The height of a ``RunConfig``'s lowest chord, where its FPCF table is taken,
    checked to lie at or below ``fpcf.h_min_mm``: below it the chord is dry."""
    lowest, lo = min(c.height_mm for c in config.chords), config.fpcf_h_min_mm
    if lo < lowest:
        raise ConfigError(f"fpcf.h_min_mm = {lo:g} lies below the lowest chord at {lowest:g} mm")
    return lowest


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

    @property
    def quad(self):  # not a field: every run integrates to one tolerance
        from .quadrature import DEFAULT_QUADRATURE
        return DEFAULT_QUADRATURE

    def __post_init__(self):
        if self.fpcf_h_max_mm is None:
            object.__setattr__(self, "fpcf_h_max_mm", 1000.0 * self.pipe.diameter_m)
        if not 0 < self.k_cal < math.inf:
            raise ConfigError(f"calibration.factor must be finite and positive, got {self.k_cal!r}")
        if self.debounce < 1:
            raise ConfigError(f"clog.debounce must be >= 1, got {self.debounce!r}")
        if not self.chords:
            raise ConfigError("no chord is configured: a run needs at least one chord.*.height_mm")
        ids = [c.chord_id for c in self.chords]
        for i in ids:  # a frame row is split at commas, and its chord id stripped
            if not i or i != i.strip() or any(ch in i for ch in ",\r\n"):
                raise ConfigError(f"chord id {i!r} cannot be read from a frame row: an id is "
                                  "non-empty, without commas, line breaks or end spaces")
        if len(set(ids)) < len(ids):
            raise ConfigError(f"chord ids must be unique, got {', '.join(ids)}")
        if not any(c.weight for c in self.chords):
            keys = ", ".join(f"chord.{i}.weight" for i in ids)
            raise ConfigError(f"every chord weight is 0 ({keys}): no chord counts toward the flow")
        crown = 1000.0 * self.pipe.diameter_m
        for c in self.chords:
            if c.height_mm > crown:
                raise ConfigError(f"chord.{c.chord_id}.height_mm = {c.height_mm:g} lies above "
                                  f"the pipe crown at {crown:g} mm")
        lo, hi, step = self.fpcf_h_min_mm, self.fpcf_h_max_mm, self.fpcf_step_mm
        for key, value in (("fpcf.h_min_mm", lo), ("fpcf.h_max_mm", hi)):
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if hi < lo:
            raise ConfigError(f"fpcf.h_max_mm = {hi:g} lies below fpcf.h_min_mm = {lo:g}")
        if hi > crown:
            raise ConfigError(f"fpcf.h_max_mm = {hi:g} lies above the pipe crown at {crown:g} mm")
        if not 0 < step < math.inf:
            raise ConfigError(f"fpcf.step_mm must be finite and positive, got {step!r}")
        if self.poly is None and not self.fpcf_derive:
            return
        lowest_chord_mm(self)  # a parsed or a derived polynomial starts at fpcf.h_min_mm
        heights = sorted({c.height_mm for c in self.chords})
        if len(heights) > 1:
            raise ConfigError("one FPCF polynomial corrects chords at one height only, got "
                              f"chords at {', '.join(f'{h:g}' for h in heights)} mm")
        if not (hi - lo) / step < 1e5:  # the list of levels, and a derived table, must fit
            raise ConfigError(f"fpcf.step_mm = {step:g} gives the FPCF table over 100000 levels")
        levels = table_levels(lo, hi, step)
        if self.fpcf_derive and len(levels) <= POLY_DEGREE:
            raise ConfigError(f"fpcf.derive = true needs more than {POLY_DEGREE} levels, got "
                              f"{len(levels)} from fpcf.h_min_mm = {lo:g}, fpcf.h_max_mm = {hi:g} "
                              f"and fpcf.step_mm = {step:g}")
        poly = self.poly  # vouches for a factor at each table level it covers, as fpcf() does
        for level in levels if poly else ():
            if poly.h_min_mm <= level <= poly.h_max_mm and not 0 < poly(level) < math.inf:
                raise ConfigError(f"fpcf.c0..c6 give FPCF = {poly(level)!r} at H = {level:g} mm: "
                                  "a factor must be finite and positive")


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
        return _decimal(float, raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _parse_int(raw: str, key: str) -> int:
    try:
        return _decimal(int, raw)
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
                value = given[rec][field] = parse(pairs[key], key)
                if rec is not RunConfig:  # a value its record refuses is named by its key
                    try:
                        rec(**{field: value})
                    except OutOfRangeError as exc:
                        raise ConfigError(f"{exc} for {key} = {pairs[key]}") from exc
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
                                  f"for {key} = {fields['height_mm']}")
            angle = math.radians(values.pop("beam_angle_deg", _BEAM_ANGLE_DEG))
            try:
                if "path_length_m" not in values:  # wall-mounted: the beam spans the full chord
                    if height >= crown_mm:  # where there is no chord to span
                        where = "at" if height == crown_mm else "above"
                        raise ConfigError(f"{key} = {height:g} lies {where} the pipe crown at "
                                          f"{crown_mm:g} mm")
                    ChordSpec(chord_id, height, 1.0, angle)  # the angle, checked before it divides
                    half_width = chord_half_width(height / 1000.0, pipe)
                    values["path_length_m"] = 2.0 * half_width / math.sin(angle)
                chords.append(ChordSpec(chord_id, beam_angle_rad=angle, **values))
            except OutOfRangeError as exc:  # a derived path names the height it came from
                derived = "path_length_m" in values.keys() - fields.keys()
                keys = ", ".join(f"chord.{chord_id}.{k} = {v}"
                                 for k, v in fields.items() if k != "height_mm" or derived)
                raise ConfigError(f"{exc} for {keys}") from exc

        run = given[RunConfig]
        missing = [k for k in _COEFF_KEYS if k not in pairs]
        if 0 < len(missing) < len(_COEFF_KEYS):
            raise ConfigError(f"incomplete FPCF coefficients, missing: {', '.join(missing)}")
        if not missing and run.get("fpcf_derive"):
            raise ConfigError("fpcf.derive = true and fpcf.c0..c6 both set the FPCF polynomial; "
                              "give one of them")

        if given[DecisionBoundary]:  # else the RunConfig default
            run["boundary"] = DecisionBoundary(**given[DecisionBoundary])
        config = RunConfig(pipe=pipe, params=EntropyParams(**given[EntropyParams]),
                           chords=tuple(chords), **run)
        if not missing:  # valid over the run's FPCF range, as a derived polynomial is
            lo, hi = config.fpcf_h_min_mm, config.fpcf_h_max_mm
            if hi == lo:
                raise ConfigError(f"fpcf.c0..c6 need fpcf.h_max_mm above fpcf.h_min_mm = {lo:g}")
            coeffs = tuple(_parse_float(pairs[k], k) for k in _COEFF_KEYS)
            config = RunConfig(**{**vars(config), "poly": FpcfPolynomial(coeffs, lo, hi)})
    except OutOfRangeError as exc:
        raise ConfigError(str(exc)) from exc

    return config


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8-sig") as fh:  # past a byte-order mark
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def resolve_polynomial(config: RunConfig) -> tuple[RunConfig, Optional[FitResult]]:
    """The run's config with its polynomial set, and the fit that derived it, if one did."""
    if config.poly is not None or not config.fpcf_derive:
        return config, None
    from .fpcf import fit_polynomial, tabulate_fpcf  # the design-time stack, run here only
    fit = fit_polynomial(tabulate_fpcf(config))
    return RunConfig(**{**vars(config), "poly": fit.polynomial}), fit


def format_fit_document(fit: FitResult) -> str:
    """Config-compatible rendering of a fit: paste into a run config as-is."""
    poly = fit.polynomial
    lines = [f"fpcf.c{k} = {c!r}" for k, c in enumerate(poly.coeffs)]
    lines.append(f"fpcf.h_min_mm = {poly.h_min_mm!r}")
    lines.append(f"fpcf.h_max_mm = {poly.h_max_mm!r}")
    lines.append(f"# fpcf.rms_residual = {fit.rms_residual!r}")
    lines.append(f"# fpcf.max_residual = {fit.max_residual!r}")
    return "\n".join(lines) + "\n"
