"""Raw sensor frames to corrected flow estimates.

Wire format (CSV): ``timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm``,
one row per chord per frame, rows of one frame grouped by timestamp.
Transit times travel as nanoseconds and are converted to seconds here;
levels stay in millimeters up to the geometry calls.

Frames take one columnar path, a chunk of rows at a time (``_run``);
``read_frame_rows``, ``estimate_flow`` and ``process_stream`` are views.
"""

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from .clogging import AlarmEvent, AlarmState, DecisionBoundary, Verdict, step_alarms
from .errors import InvalidTimesError, OutOfRangeError
from .fpcf import FpcfPolynomial, horner
from .geometry import PipeGeometry, WaterLevel, segment_area

# Line velocities above this magnitude are flagged but retained.
DEFAULT_PLAUSIBILITY_CAP = 15.0  # m/s

FRAME_CSV_HEADER = "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm"

# Rows per chunk: the first chunk is small so that the first records come
# out early; later ones double up to the cap, which bounds the read-ahead
# and the memory of a chunk.
FIRST_CHUNK_ROWS = 256
CHUNK_ROWS_CAP = 1024


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
    UNCORRECTED = "uncorrected"


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


@dataclass(frozen=True)
class ProcessedFrame:
    estimate: FlowEstimate
    verdict: Optional[Verdict]
    alarm_event: Optional[AlarmEvent]


def _transit_velocity(t_up, t_down, path_length_m, cos_angle):
    """v = L * (t_down - t_up) / (2 * t_up * t_down * cos(theta)); scalars or arrays."""
    return path_length_m * (t_down - t_up) / (2.0 * t_up * t_down * cos_angle)


def line_velocity(t_up_s: float, t_down_s: float, chord: ChordSpec) -> float:
    """Axial velocity from the up/downstream transit-time pair.

    Positive when the with-flow pulse is the faster one.
    """
    if not (math.isfinite(t_up_s) and math.isfinite(t_down_s) and t_up_s > 0 and t_down_s > 0):
        raise InvalidTimesError(
            f"transit times must be finite and positive, got t_up={t_up_s!r}, t_down={t_down_s!r}"
        )
    return _transit_velocity(t_up_s, t_down_s, chord.path_length_m, math.cos(chord.beam_angle_rad))


# Both readers yield chunks of complete frames: ts and level_mm per frame;
# frame index, chord id, t_up_s, t_down_s and line number (0 for frame
# objects) per row; diagnostics as (index of the frame it precedes, line, it).


def _convert(fields: list) -> tuple:
    """Columns of split rows; fields convert in row order, so one bad row
    raises the error of its first bad field."""
    cols = list(zip(*fields)) or [()] * 5
    ts, t_up, t_down, level = (np.array(list(map(float, cols[i])), float) for i in (0, 2, 3, 4))
    chord = [c.strip() for c in cols[1]]
    if "" in chord:
        raise ValueError("empty chord id")
    return ts, chord, t_up, t_down, level


def _read_rows(lines: Iterable[str]) -> Iterator[tuple]:
    """The frame CSV, a chunk of rows at a time, grouped into frames by timestamp.

    Rows that cannot be read, and rows whose level differs from their frame's
    first row, become line-numbered diagnostics; the rest of the frame counts.
    A chunk's last frame may go on in the next chunk, so its rows carry over.
    """
    source, size, line_no, nos, fields = iter(lines), FIRST_CHUNK_ROWS, 0, [], []
    while True:
        read_from, diags = line_no, []
        for line_no, raw in enumerate(islice(source, size), line_no + 1):
            line = raw.strip()
            if not line or line[0] == "#" or (
                line[0] in "tT" and line.lower().replace(" ", "") == FRAME_CSV_HEADER
            ):
                continue
            parts = line.split(",")
            if len(parts) == 5:
                nos.append(line_no)
                fields.append(parts)
            else:
                diags.append((line_no, f"expected 5 fields, got {len(parts)}"))
        at_end, size = line_no - read_from < size, min(2 * size, CHUNK_ROWS_CAP)
        try:
            ts, chord, t_up, t_down, level = _convert(fields)
        except ValueError:
            good = []
            for no, parts in zip(nos, fields):
                try:
                    _convert([parts])
                    good.append((no, parts))
                except ValueError as exc:
                    diags.append((no, f"unparseable row: {exc}"))
            nos, fields = [g[0] for g in good], [g[1] for g in good]
            ts, chord, t_up, t_down, level = _convert(fields)
        starts = np.flatnonzero(np.concatenate(([len(ts) > 0], ts[1:] != ts[:-1])))
        cut = len(ts) if at_end or not len(starts) else starts[-1]
        # a frame is complete when the next one starts, and comes out then
        first_lines = [nos[s] for s in starts.tolist()]
        out = [(max(bisect.bisect_right(first_lines, no) - 1, 0), no,
                FrameDiagnostic(detail=detail, line_no=no)) for no, detail in diags]
        starts = starts[starts < cut]
        frame = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, cut)))
        keep = level[:cut] == level[starts][frame]
        keep[starts] = True
        for k in np.flatnonzero(~keep).tolist():
            first = starts[frame[k]]
            out.append((frame[k], nos[k], FrameDiagnostic(
                f"level {level[k].item()!r} mm differs from the frame's first row "
                f"({level[first].item()!r} mm); row dropped", ts[first].item(), nos[k])))
        kept = keep.tolist()
        rows = (ts[starts], level[starts], frame[keep], list(compress(chord, kept)),
                t_up[:cut][keep] * 1e-9, t_down[:cut][keep] * 1e-9, list(compress(nos, kept)), out)
        nos, fields = nos[cut:], fields[cut:]
        yield rows
        if at_end:
            return
        rows = chord = None  # free this chunk before reading the next


def _pack_frames(items: Iterable[SensorFrame | FrameDiagnostic]) -> Iterator[tuple]:
    """Frame objects in chunks of the columns ``_read_rows`` yields."""
    source = iter(items)
    while chunk := list(islice(source, FIRST_CHUNK_ROWS)):
        frames, diags = [], []
        for item in chunk:
            if isinstance(item, FrameDiagnostic):
                diags.append((len(frames), 0, item))
            else:
                frames.append(item)
        rows = [r for f in frames for r in f.readings]
        yield (np.array([f.timestamp_s for f in frames], float),
               np.array([f.level_mm for f in frames], float),
               np.repeat(np.arange(len(frames)), [len(f.readings) for f in frames]),
               [r.chord_id for r in rows], np.array([r.t_up_s for r in rows], float),
               np.array([r.t_down_s for r in rows], float), [0] * len(rows), diags)


def _interleave(frames: list, diags: list) -> Iterator:
    """Frames with each (index of the frame it precedes, line, diagnostic) in place."""
    start = 0
    for pos, _, diag in sorted(diags, key=itemgetter(0, 1)):
        yield from frames[start:pos]
        yield diag
        start = pos
    yield from frames[start:]


def _run(chunks, chords, poly, pipe, k_cal, boundary, debounce) -> Iterator:
    """Q = k_cal * FPCF * v_line * A, verdicts and alarm events, a chunk at a time.

    Yields diagnostics and, in input order, per frame (ts, level_mm, v_line,
    area_m2, fpcf, flow_m3s, status, verdict, alarm event, each chord's v
    or NaN); v_line, flow_m3s and verdict are None without a velocity. A
    frame whose level does not fit the pipe, an unknown chord's row and a
    chord's second row become diagnostics. Wet chords with finite, positive
    times count, summed in configuration order. Off-range levels get FPCF = 1.
    """
    specs = list({c.chord_id: c for c in chords}.values())
    index = {c.chord_id: i for i, c in enumerate(specs)}
    height, length, cos = np.array(
        [(c.height_mm, c.path_length_m, math.cos(c.beam_angle_rad)) for c in specs], float
    ).reshape(-1, 3).T
    state = AlarmState(threshold=debounce)
    for ts, level, frame, chord, t_up, t_down, line, diags in chunks:
        n_frames = len(ts)
        cidx = np.array([index.get(c, -1) for c in chord], dtype=np.intp)
        key, kept = frame * len(specs) + cidx, cidx >= 0
        if kept.any() and np.bincount(key[kept]).max() > 1:  # a chord's first row counts
            seen = set()
            for k in np.flatnonzero(kept).tolist():
                kept[k] = key[k] not in seen
                seen.add(key[k])
        for k in np.flatnonzero(~kept).tolist():
            what = "duplicate row for chord" if cidx[k] >= 0 else "unknown chord id"
            diags.append((frame[k], line[k], FrameDiagnostic(
                f"{what} {chord[k]!r}; row dropped", ts[frame[k]].item(), line[k] or None)))

        up, down = np.full((2, n_frames, len(specs)), np.nan)
        up[frame[kept], cidx[kept]] = t_up[kept]
        down[frame[kept], cidx[kept]] = t_down[kept]
        fits = np.isfinite(level) & (level / 1000.0 >= 0) & (level / 1000.0 <= pipe.diameter_m)
        with np.errstate(all="ignore"):
            v = _transit_velocity(up, down, length, cos)
            wet = height < level[:, None]
            used = (up > 0) & (down > 0) & np.isfinite(v) & wet
            num, den = np.zeros(n_frames), np.zeros(n_frames)
            for c, spec in enumerate(specs):
                num = num + np.where(used[:, c], spec.weight * v[:, c], 0.0)
                den = den + np.where(used[:, c], spec.weight, 0.0)
            has_v, mean_v = fits & (den > 0), num / den
            if poly is None:
                status, fpcf = np.full(n_frames, EstimateStatus.UNCORRECTED), np.ones(n_frames)
            else:
                in_range = (level >= poly.h_min_mm) & (level <= poly.h_max_mm)
                status = np.where(in_range, EstimateStatus.OK, EstimateStatus.FPCF_OUT_OF_RANGE)
                fpcf = np.where(in_range & has_v, horner(poly.coeffs, level), 1.0)
            # scalar math, once per distinct level: numpy's arccos and sin
            # can differ from segment_area's in the last bit
            levels = np.where(fits, level, 0.0).tolist()
            areas = {x: segment_area(WaterLevel(x / 1000.0), pipe) for x in set(levels)}
            area = np.array([areas[x] for x in levels])
            flow = k_cal * fpcf * mean_v * area
        status = np.where(has_v, status, EstimateStatus.INVALID_TIMES)
        status = np.where(wet.any(axis=1), status, EstimateStatus.DRY_CHORD)
        clog = mean_v < boundary.threshold(level)
        state, events = step_alarms(state, clog[has_v].tolist())
        events = iter(events)
        frames = list(zip(
            ts.tolist(), level.tolist(), np.where(has_v, mean_v, None).tolist(), area.tolist(),
            fpcf.tolist(), np.where(has_v, flow, None).tolist(), status.tolist(),
            np.where(has_v, np.where(clog, Verdict.CLOGGING, Verdict.NORMAL), None).tolist(),
            [next(events) if judged else None for judged in has_v.tolist()],
            np.where(used, v, np.nan).tolist(),
        ))
        for f in np.flatnonzero(~fits).tolist():
            frames[f] = FrameDiagnostic(f"level {level[f].item()!r} mm is not within the pipe "
                                        f"(0 to {1000 * pipe.diameter_m:g} mm)", ts[f].item())
        yield from _interleave(frames, diags)
        frames = None  # free this chunk before reading the next


def process_lines(lines: Iterable[str], chords, poly, pipe, k_cal=1.0, boundary=DecisionBoundary(),
                  debounce=5) -> Iterator[tuple | FrameDiagnostic]:
    """The frame CSV to diagnostics and per-frame tuples (see ``_run``), in input order,
    reading at most one chunk of rows ahead; the other arguments as for ``process_stream``."""
    return _run(_read_rows(lines), chords, poly, pipe, k_cal, boundary, debounce)


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

    Malformed frames and dropped rows become diagnostics and the stream
    continues. Frames without a usable mean velocity leave the alarm state
    untouched.
    """
    chords = list(chords)
    ids = list({c.chord_id: c for c in chords})
    for item in _run(_pack_frames(frames), chords, poly, pipe, k_cal, boundary, debounce):
        if isinstance(item, FrameDiagnostic):
            yield item
            continue
        ts, level, v, area, fpcf, flow, status, verdict, event, chord_v = item
        velocities = tuple((c, x) for c, x in zip(ids, chord_v) if x == x)
        implausible = tuple(c for c, x in velocities if abs(x) > plausibility_cap)
        estimate = FlowEstimate(ts, level, velocities, v, area, fpcf, k_cal, flow, status,
                                implausible)
        yield ProcessedFrame(estimate, verdict, event)


def estimate_flow(
    frame: SensorFrame,
    chords: Iterable[ChordSpec],
    poly: Optional[FpcfPolynomial],
    pipe: PipeGeometry,
    k_cal: float = 1.0,
    plausibility_cap: float = DEFAULT_PLAUSIBILITY_CAP,
) -> FlowEstimate:
    """Single-frame flow estimate Q = k_cal * FPCF * v_line * A.

    Raises OutOfRangeError when the level does not fit the pipe.
    """
    WaterLevel(frame.level_mm / 1000.0).check_against(pipe)
    items = process_stream([frame], chords, poly, pipe, k_cal, plausibility_cap=plausibility_cap)
    return next(p for p in items if isinstance(p, ProcessedFrame)).estimate


def read_frame_rows(lines: Iterable[str]) -> Iterator[SensorFrame | FrameDiagnostic]:
    """Parse the frame CSV, grouping rows of equal timestamp into frames.

    Bad rows yield diagnostics without dropping the rest of their frame.
    """
    for ts, level, frame, chord, t_up, t_down, _, diags in _read_rows(lines):
        readings = list(map(ChordReading, chord, t_up.tolist(), t_down.tolist()))
        bounds = np.searchsorted(frame, np.arange(len(ts) + 1)).tolist()
        yield from _interleave([
            SensorFrame(t, tuple(readings[a:b]), h)
            for t, h, a, b in zip(ts.tolist(), level.tolist(), bounds, bounds[1:])
        ], diags)


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
