"""Synthetic sensor frames from ground-truth operating points.

The generator inverts the flow equation through the quadrature-based
correction factor, never the fitted polynomial, so an end-to-end round
trip through the estimator is sensitive to fitting error by construction.
Weir scenarios raise the level and recompute chord velocities at constant
flow, emulating backwater from a downstream obstruction.
"""

import math
import random
from enum import Enum
from typing import Iterable

from ._record import record
from .errors import OutOfRangeError
from .fpcf import fpcf
from .geometry import PipeGeometry, WaterLevel, segment_area
from .measurement import ChordReading, ChordSpec, SensorFrame
from .profile import EntropyParams, ProfileModel
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec

DEFAULT_SOUND_SPEED = 1480.0  # m/s, water near 20 degC


class WeirMode(Enum):
    NONE = "none"
    WEIR1 = "weir1"
    WEIR2 = "weir2"


# Level uplift factors chosen so weir points land below the default
# clogging boundary across the tested flow range while no-weir points
# stay above it.
_WEIR_UPLIFT = {WeirMode.WEIR1: 0.35, WeirMode.WEIR2: 0.80}

# Measured anchor points of the test rig: 2 L/s ran at 65 mm and 6 L/s at
# 100 mm; intermediate rates interpolate linearly.
_LEVEL_ANCHORS = ((2.0, 65.0), (6.0, 100.0))


def baseline_level_mm(flow_lps: float) -> float:
    """Free-flow operating level for a given flow rate."""
    (q0, h0), (q1, h1) = _LEVEL_ANCHORS
    return h0 + (h1 - h0) * (flow_lps - q0) / (q1 - q0)


@record
class ScenarioSpec:
    """Ground truth plus noise model for one synthetic run."""

    flow_lps: float
    level_mm: float
    weir: WeirMode = WeirMode.NONE
    noise_sigma_s: float = 0.0
    seed: int = 0
    frame_count: int = 1
    frame_interval_s: float = 1.0

    def __post_init__(self):
        for name, value in (("flow_lps", self.flow_lps), ("noise_sigma_s", self.noise_sigma_s)):
            if not 0 <= value < math.inf:
                raise OutOfRangeError(f"{name} must be finite and non-negative, got {value!r}")
        if not 0 <= self.level_mm < math.inf:
            raise OutOfRangeError(f"level must be finite and non-negative, got {self.level_mm!r}")
        if self.frame_count < 1:
            raise OutOfRangeError(f"frame count must be >= 1, got {self.frame_count!r}")
        if not 0 < self.frame_interval_s < math.inf:
            raise OutOfRangeError(
                f"frame interval must be finite and positive, got {self.frame_interval_s!r}")
        if self.seed < 0:
            raise OutOfRangeError(f"seed must be non-negative, got {self.seed!r}")


def transit_times(v_chord: float, chord: ChordSpec, sound_speed: float) -> tuple[float, float]:
    """Up/downstream transit times for a chord velocity.

    t_up = L/(c + v cos theta), t_down = L/(c - v cos theta); the line
    velocity formula applied to these recovers v exactly.
    """
    axial = v_chord * math.cos(chord.beam_angle_rad)
    if abs(axial) >= sound_speed:
        raise OutOfRangeError(
            f"axial velocity component {axial:g} m/s reaches the sound speed {sound_speed:g} m/s"
        )
    return (
        chord.path_length_m / (sound_speed + axial),
        chord.path_length_m / (sound_speed - axial),
    )


def chord_velocity_from_truth(
    flow_m3s: float,
    level_mm: float,
    chord: ChordSpec,
    pipe: PipeGeometry,
    params: EntropyParams = EntropyParams(),
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Chord velocity consistent with a true flow: v = Q / (A * FPCF).

    The correction factor comes straight from quadrature, not from any
    fitted polynomial. The level is checked against the pipe even at zero
    flow, where no correction factor is needed.
    """
    if chord.height_mm > level_mm:
        raise OutOfRangeError(
            f"chord at {chord.height_mm:g} mm is dry at level {level_mm:g} mm"
        )
    level = WaterLevel(level_mm / 1000.0)
    level.check_against(pipe)
    if flow_m3s == 0.0:
        return 0.0
    model = ProfileModel(pipe=pipe, level=level, params=params)
    area = segment_area(level, pipe)
    correction = fpcf(model, chord.height_mm / 1000.0, quad)
    return flow_m3s / (area * correction)


def weir_shift(level_mm: float, weir: WeirMode, pipe: PipeGeometry) -> float:
    """Backwater level under a downstream weir: H * (1 + uplift).

    Purely empirical: the uplift emulates the observed level rise, and the
    chord velocities are recomputed at constant flow from the raised level.
    """
    if weir is WeirMode.NONE:
        return level_mm
    shifted = level_mm * (1.0 + _WEIR_UPLIFT[weir])
    if shifted > 1000.0 * pipe.diameter_m:
        raise OutOfRangeError(
            f"weir backwater level {shifted:g} mm pools past the pipe crown "
            f"({1000.0 * pipe.diameter_m:g} mm)"
        )
    return shifted


def generate(
    scenario: ScenarioSpec,
    chords: Iterable[ChordSpec],
    pipe: PipeGeometry,
    params: EntropyParams = EntropyParams(),
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[SensorFrame]:
    """Deterministic frame list for the scenario (fixed seed, fixed output).

    Gaussian jitter is drawn independently for every transit time of every
    frame; with sigma = 0 all frames are identical.
    """
    level_mm = weir_shift(scenario.level_mm, scenario.weir, pipe)
    chord_list = list(chords)
    velocity = {}  # chord height -> chord velocity: one FPCF quadrature per height
    base_times = []
    for chord in chord_list:
        if chord.height_mm not in velocity:
            velocity[chord.height_mm] = chord_velocity_from_truth(
                scenario.flow_lps / 1000.0, level_mm, chord, pipe, params, quad
            )
        base_times.append(transit_times(velocity[chord.height_mm], chord, DEFAULT_SOUND_SPEED))

    # the standard library's gauss; no noise, no draws
    sigma = scenario.noise_sigma_s
    gauss = random.Random(scenario.seed).gauss if sigma > 0.0 else lambda mu, sigma: mu
    # by position: a record binds keywords at ~3x the cost
    return [SensorFrame(k * scenario.frame_interval_s,
                        tuple(ChordReading(chord.chord_id, t_up + gauss(0.0, sigma),
                                           t_down + gauss(0.0, sigma))
                              for chord, (t_up, t_down) in zip(chord_list, base_times)),
                        level_mm)
            for k in range(scenario.frame_count)]
