"""Raw sensor frames to corrected flow estimates.

Wire format (CSV): ``timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm``,
one row per chord per frame, rows of one frame grouped by timestamp.
Transit times travel as nanoseconds and are converted to seconds here;
levels stay in millimeters up to the geometry calls.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

from .clogging import AlarmEvent, AlarmState, DecisionBoundary, Verdict, classify, step_alarm
from .errors import FpcfRangeError, InvalidTimesError, OutOfRangeError, PartialFlowError
from .fpcf import FpcfPolynomial, eval_fpcf
from .geometry import PipeGeometry, WaterLevel, segment_area

# Line velocities above this magnitude are flagged but retained.
DEFAULT_PLAUSIBILITY_CAP = 15.0  # m/s

FRAME_CSV_HEADER = "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm"


@dataclass(frozen=True)
class ChordSpec:
    """One acoustic path: height above the bottom, path length, beam angle."""

    chord_id: str
    height_mm: float
    path_length_m: float
    beam_angle_rad: float
    weight: float = 1.0

    def __post_init__(self):
        if not self.path_length_m > 0:
            raise OutOfRangeError(f"path length must be positive, got {self.path_length_m!r}")
        if not 0 < self.beam_angle_rad < math.pi / 2:
            raise OutOfRangeError(
                f"beam angle must lie in (0, pi/2), got {self.beam_angle_rad!r}"
            )
        if self.weight < 0:
            raise OutOfRangeError(f"chord weight must be non-negative, got {self.weight!r}")


@dataclass(frozen=True)
class ChordReading:
    chord_id: str
    t_up_s: float
    t_down_s: float


@dataclass(frozen=True)
class SensorFrame:
    """One timestamped reading: per-chord transit times plus water level."""

    timestamp_s: float
    readings: tuple[ChordReading, ...]
    level_mm: float


@dataclass(frozen=True)
class FrameDiagnostic:
    """A malformed row or frame, reported instead of an estimate."""

    detail: str
    timestamp_s: Optional[float] = None
    line_no: Optional[int] = None


class EstimateStatus(Enum):
    OK = "ok"
    FPCF_OUT_OF_RANGE = "fpcf_out_of_range"
    DRY_CHORD = "dry_chord"
    INVALID_TIMES = "invalid_times"


@dataclass(frozen=True)
class FlowEstimate:
    timestamp_s: float
    level_mm: float
    chord_velocities: tuple[tuple[str, float], ...]
    mean_line_velocity: Optional[float]
    area_m2: float
    fpcf_applied: float
    k_cal: float
    flow_m3s: Optional[float]
    status: EstimateStatus
    implausible_chords: tuple[str, ...] = ()

    @property
    def flow_lps(self) -> Optional[float]:
        return None if self.flow_m3s is None else 1000.0 * self.flow_m3s


def line_velocity(t_up_s: float, t_down_s: float, chord: ChordSpec) -> float:
    """Axial velocity from the up/downstream transit-time pair.

    v = L * (t_down - t_up) / (2 * t_up * t_down * cos(theta)); positive
    when the with-flow pulse is the faster one.
    """
    if t_up_s <= 0 or t_down_s <= 0:
        raise InvalidTimesError(
            f"transit times must be positive, got t_up={t_up_s!r}, t_down={t_down_s!r}"
        )
    return (
        chord.path_length_m
        * (t_down_s - t_up_s)
        / (2.0 * t_up_s * t_down_s * math.cos(chord.beam_angle_rad))
    )


def estimate_flow(
    frame: SensorFrame,
    chords: Iterable[ChordSpec],
    poly: Optional[FpcfPolynomial],
    pipe: PipeGeometry,
    k_cal: float = 1.0,
    plausibility_cap: float = DEFAULT_PLAUSIBILITY_CAP,
) -> FlowEstimate:
    """Single-frame flow estimate Q = k_cal * FPCF * v_line * A.

    Levels outside the polynomial's validity range fall back to FPCF = 1
    with an explicit status instead of extrapolating.
    """
    level = WaterLevel(frame.level_mm / 1000.0)
    level.check_against(pipe)
    area = segment_area(level, pipe)
    by_id = {c.chord_id: c for c in chords}
    readings = {r.chord_id: r for r in frame.readings}

    wet = [c for c in by_id.values() if c.height_mm < frame.level_mm]
    if not wet:
        return FlowEstimate(
            timestamp_s=frame.timestamp_s,
            level_mm=frame.level_mm,
            chord_velocities=(),
            mean_line_velocity=None,
            area_m2=area,
            fpcf_applied=1.0,
            k_cal=k_cal,
            flow_m3s=None,
            status=EstimateStatus.DRY_CHORD,
        )

    velocities: list[tuple[str, float]] = []
    weights: list[float] = []
    implausible: list[str] = []
    for chord in wet:
        reading = readings.get(chord.chord_id)
        if reading is None:
            continue
        try:
            v = line_velocity(reading.t_up_s, reading.t_down_s, chord)
        except InvalidTimesError:
            continue
        if abs(v) > plausibility_cap:
            implausible.append(chord.chord_id)
        velocities.append((chord.chord_id, v))
        weights.append(chord.weight)

    if not velocities or sum(weights) <= 0:
        return FlowEstimate(
            timestamp_s=frame.timestamp_s,
            level_mm=frame.level_mm,
            chord_velocities=(),
            mean_line_velocity=None,
            area_m2=area,
            fpcf_applied=1.0,
            k_cal=k_cal,
            flow_m3s=None,
            status=EstimateStatus.INVALID_TIMES,
        )

    v_mean = sum(w * v for (_, v), w in zip(velocities, weights)) / sum(weights)

    status = EstimateStatus.OK
    correction = 1.0
    if poly is not None:
        try:
            correction = eval_fpcf(poly, frame.level_mm)
        except FpcfRangeError:
            status = EstimateStatus.FPCF_OUT_OF_RANGE
    flow = k_cal * correction * v_mean * area

    return FlowEstimate(
        timestamp_s=frame.timestamp_s,
        level_mm=frame.level_mm,
        chord_velocities=tuple(velocities),
        mean_line_velocity=v_mean,
        area_m2=area,
        fpcf_applied=correction,
        k_cal=k_cal,
        flow_m3s=flow,
        status=status,
        implausible_chords=tuple(implausible),
    )


@dataclass(frozen=True)
class ProcessedFrame:
    estimate: FlowEstimate
    verdict: Optional[Verdict]
    alarm_event: Optional[AlarmEvent]


def process_stream(
    frames: Iterable[SensorFrame | FrameDiagnostic],
    chords: Iterable[ChordSpec],
    poly: Optional[FpcfPolynomial],
    pipe: PipeGeometry,
    k_cal: float = 1.0,
    boundary: DecisionBoundary = DecisionBoundary(),
    debounce: int = 5,
    plausibility_cap: float = DEFAULT_PLAUSIBILITY_CAP,
) -> Iterator[ProcessedFrame | FrameDiagnostic]:
    """Per-frame estimates plus debounced clogging verdicts, in input order.

    Malformed frames become diagnostics and the stream continues. Frames
    without a usable mean velocity leave the alarm state untouched.
    """
    chord_list = list(chords)
    state = AlarmState(threshold=debounce)
    for frame in frames:
        if isinstance(frame, FrameDiagnostic):
            yield frame
            continue
        try:
            estimate = estimate_flow(
                frame, chord_list, poly, pipe, k_cal, plausibility_cap
            )
        except PartialFlowError as exc:
            yield FrameDiagnostic(detail=str(exc), timestamp_s=frame.timestamp_s)
            continue
        verdict = None
        event = None
        if estimate.mean_line_velocity is not None:
            verdict = classify(estimate.level_mm, estimate.mean_line_velocity, boundary)
            state, event = step_alarm(state, verdict)
        yield ProcessedFrame(estimate=estimate, verdict=verdict, alarm_event=event)


def read_frame_rows(lines: Iterable[str]) -> Iterator[SensorFrame | FrameDiagnostic]:
    """Parse the frame CSV, grouping rows of equal timestamp into frames.

    Bad rows yield diagnostics without dropping the rest of their frame.
    """
    pending_ts: Optional[float] = None
    pending_level: Optional[float] = None
    pending: list[ChordReading] = []

    def flush():
        nonlocal pending_ts, pending_level, pending
        if pending_ts is None:
            return None
        frame = SensorFrame(
            timestamp_s=pending_ts,
            readings=tuple(pending),
            level_mm=pending_level if pending_level is not None else 0.0,
        )
        pending_ts = None
        pending_level = None
        pending = []
        return frame

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().replace(" ", "") == FRAME_CSV_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            yield FrameDiagnostic(
                detail=f"expected 5 fields, got {len(parts)}", line_no=line_no
            )
            continue
        try:
            ts = float(parts[0])
            chord_id = parts[1].strip()
            t_up_s = float(parts[2]) * 1e-9
            t_down_s = float(parts[3]) * 1e-9
            level_mm = float(parts[4])
            if not chord_id:
                raise ValueError("empty chord id")
        except ValueError as exc:
            yield FrameDiagnostic(detail=f"unparseable row: {exc}", line_no=line_no)
            continue
        if pending_ts is not None and ts != pending_ts:
            frame = flush()
            if frame is not None:
                yield frame
        if pending_ts is None:
            pending_ts = ts
            pending_level = level_mm
        pending.append(ChordReading(chord_id, t_up_s, t_down_s))
    frame = flush()
    if frame is not None:
        yield frame


def write_frame_rows(frames: Iterable[SensorFrame], stream) -> None:
    """Emit the frame CSV; float repr keeps replays byte-identical."""
    stream.write(FRAME_CSV_HEADER + "\n")
    for frame in frames:
        for r in frame.readings:
            stream.write(
                f"{float(frame.timestamp_s)!r},{r.chord_id},"
                f"{float(r.t_up_s * 1e9)!r},{float(r.t_down_s * 1e9)!r},"
                f"{float(frame.level_mm)!r}\n"
            )
