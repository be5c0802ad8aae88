"""Raw sensor frames to corrected flow estimates.

Wire format (CSV): ``timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm``,
one row per chord per frame, rows of one frame grouped by timestamp.
Transit times travel as nanoseconds and are converted to seconds here;
levels stay in millimeters up to the geometry calls.

Frames take one path in plain floats: ``process_lines`` reads the CSV a row at
a time, keeps one frame open, and yields a ``FrameChunk`` of lists per chunk of
rows.
"""

import math
import struct
from collections import namedtuple
from enum import Enum
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from ._record import record
from .clogging import AlarmState, step_alarms
from .errors import ConfigError, InvalidTimesError, OutOfRangeError
from .geometry import WaterLevel, segment_area

FRAME_CSV_HEADER = "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm"

# Rows per chunk: the first chunk is small so that the first records come
# out early; later ones double up to the cap, which bounds the read-ahead
# and the memory of a chunk.
FIRST_CHUNK_ROWS = 256
CHUNK_ROWS_CAP = 1024


@record
class ChordSpec:
    """One acoustic path: height above the bottom, path length, beam angle."""

    chord_id: str
    height_mm: float
    path_length_m: float
    beam_angle_rad: float
    weight: float = 1.0

    def __post_init__(self):
        if not 0 < self.height_mm < math.inf:
            raise OutOfRangeError(
                f"chord height must be finite and positive, got {self.height_mm!r}")
        if not 0 < self.path_length_m < math.inf:
            raise OutOfRangeError(
                f"path length must be finite and positive, got {self.path_length_m!r}")
        if not 0 < self.beam_angle_rad < math.pi / 2:
            raise OutOfRangeError(
                f"beam angle must lie in (0, pi/2), got {self.beam_angle_rad!r}"
            )
        if not 0 <= self.weight < math.inf:
            raise OutOfRangeError(f"chord weight must be finite, non-negative, got {self.weight!r}")


@record
class ChordReading:
    chord_id: str
    t_up_s: float
    t_down_s: float


@record
class SensorFrame:
    """One timestamped reading: per-chord transit times plus water level."""

    timestamp_s: float
    readings: tuple[ChordReading, ...]
    level_mm: float


@record
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


def _transit_velocity(t_up, t_down, path_length_m, cos_angle):
    """v = L * (t_down - t_up) / (2 * t_up * t_down * cos(theta))."""
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


def _split_row(raw: str):
    """A data line as (ts, chord id, t_up_ns, t_down_ns, level_mm); None for a blank,
    comment or header line; else the detail of its diagnostic, for its first bad field."""
    line = raw.strip()
    if not line or line[0] == "#" or (
        line[0] in "tT" and line.lower().replace(" ", "") == FRAME_CSV_HEADER
    ):
        return None
    parts = line.split(",")
    if len(parts) != 5:
        return f"expected 5 fields, got {len(parts)}"
    try:
        ts, t_up, t_down, level = map(float, itemgetter(0, 2, 3, 4)(parts))
        if not parts[1].strip():
            raise ValueError("empty chord id")
    except ValueError as exc:
        return f"unparseable row: {exc}"
    return ts, parts[1].strip(), t_up, t_down, level


class FrameChunk(namedtuple("FrameChunk", "ts level v_line area fpcf flow_m3s status clog "
                                           "events misfits diags")):
    """The frames estimated from one chunk of rows, a list per field: ``status`` indexes
    ``STATUSES``; ``clog`` is 0 normal, 1 clogging, 2 no velocity (``v_line``,
    ``flow_m3s`` NaN). ``events`` lists (frame, alarm event), ``misfits`` (frame,
    out-of-pipe diagnostic), ``diags`` (frame it precedes, line, diagnostic) in line
    order; a frame index past the last is a frame that a later chunk closes."""

    def in_order(self, records: list, diagnostic=lambda d: d) -> list:
        """A record per frame and, as ``diagnostic(d)``, each diagnostic before the frame
        still open at its line: a bad row just after frame k's rows comes before frame k."""
        for f, d in self.misfits:
            records[f] = diagnostic(d)
        out, at = [], 0
        for pos, _, d in self.diags:  # sorted by position: one pass, no inserts
            out += [*records[at:pos], diagnostic(d)]
            at = pos
        return out + records[at:]


STATUSES = tuple(EstimateStatus)
_OK, _FPCF_OUT_OF_RANGE, _DRY_CHORD, _INVALID_TIMES, _UNCORRECTED = range(len(STATUSES))
# First characters of a line that is a data row as it stands: no blank, comment or
# header line starts with one, and stripping the line leaves its first field alone.
_ROW_START = "0123456789+-.iInN"
_BITS = struct.Struct("<d").pack


def _frames(lines: Iterable[str], config) -> Iterator[FrameChunk]:
    """Q = k_cal * FPCF * v_line * A, verdicts and alarm events, a chunk of rows at a time.

    Rows are read as they come into the one open frame, a slot per configured chord;
    a row with another timestamp closes it. Rows that cannot be read or have no finite
    timestamp, rows whose level differs from their frame's first row, an unknown
    chord's row and a chord's second row become diagnostics when they are read; the
    rest of the frame counts. A frame whose level does not fit the pipe becomes a
    diagnostic too. Wet chords with finite, positive times count, summed in
    configuration order. Levels outside the polynomial's validity range get FPCF = 1
    and ``fpcf_out_of_range``: the polynomial is unguarded.
    """
    pipe, poly, boundary, k_cal = config.pipe, config.poly, config.boundary, config.k_cal
    chords = [(c.height_mm, c.path_length_m, math.cos(c.beam_angle_rad), c.weight)
              for c in config.chords]
    # a row's chord id is read stripped, so an id with spaces around it matches no row
    index = {c.chord_id: i for i, c in enumerate(config.chords) if c.chord_id == c.chord_id.strip()}
    misfit = f"mm is not within the pipe (0 to {1000 * pipe.diameter_m:g} mm)"
    isfinite, nan, n_chords = math.isfinite, math.nan, len(chords)

    def at_level(level: float) -> tuple:
        """What a frame's level alone sets: whether it fits the pipe, the area, the FPCF
        and status of a frame with a velocity, the status of one without, the slot and
        constants of each wet chord, and the clogging threshold."""
        fits = math.isfinite(level) and level / 1000.0 >= 0 and level / 1000.0 <= pipe.diameter_m
        wet = [(i, length, cos, weight)
               for i, (height, length, cos, weight) in enumerate(chords) if height < level]
        if poly is None:
            fpcf, status = 1.0, _UNCORRECTED
        elif poly.h_min_mm <= level <= poly.h_max_mm:
            fpcf, status = poly(level), _OK
        else:
            fpcf, status = 1.0, _FPCF_OUT_OF_RANGE
        return (fits, segment_area(WaterLevel((level if fits else 0.0) / 1000.0), pipe),
                fpcf, status, _INVALID_TIMES if wet else _DRY_CHORD, wet,
                boundary.threshold(level))

    def close():
        """Estimate the open frame into ``frames``, by the formulas of ``line_velocity``
        and in the operation order the sums always had."""
        fits, area, fpcf, status, no_v_status, wet, threshold = kind
        num = den = 0.0
        for i, length, cos, weight in wet:
            if ups[i] is not None:
                t_up, t_down = ups[i] * 1e-9, downs[i] * 1e-9
                if t_up > 0 and t_down > 0:
                    try:
                        v = _transit_velocity(t_up, t_down, length, cos)
                    except ZeroDivisionError:  # the denominator underflowed: v is not finite
                        continue
                    if isfinite(v):
                        num += weight * v
                        den += weight
        if fits and den > 0:
            v = num / den
            clog = v < threshold
            judged.append(len(frames))
            clogging.append(clog)
            frames.append((frame_ts, frame_level, v, area, fpcf, k_cal * fpcf * v * area, status,
                           int(clog)))
        else:
            if not fits:
                misfits.append((len(frames), FrameDiagnostic(f"level {frame_level!r} {misfit}",
                                                             frame_ts)))
            frames.append((frame_ts, frame_level, nan, area, 1.0, nan, no_v_status, 2))

    state, memo = AlarmState(config.debounce), {}
    source, size, line_no = iter(lines), FIRST_CHUNK_ROWS, 0
    # the ts and level texts that the last rows read as they stand, and their values
    ts_text = level_text = None
    ts_value = level_value = math.nan
    # the open frame: its ts and level, what its level sets, its t_up_ns and t_down_ns
    # per chord
    frame_ts = frame_level = kind = ups = downs = None
    while True:
        block = list(islice(source, size))
        at_end, size = len(block) < size, min(2 * size, CHUNK_ROWS_CAP)
        frames, misfits, diags, judged, clogging = [], [], [], [], []
        memo.clear()  # held for a run, it would grow with every distinct level
        for no, raw in enumerate(block, line_no + 1):
            parts = raw.split(",")
            try:  # what _split_row reads, faster; a line it cannot read goes on to it
                if len(parts) != 5 or raw[0] not in _ROW_START:
                    raise ValueError
                t_text, chord, up_text, down_text, l_text = parts
                if t_text != ts_text:
                    ts_value, ts_text = float(t_text), t_text
                t_up, t_down = float(up_text), float(down_text)
                if l_text != level_text:
                    level_value, level_text = float(l_text), l_text
                ts, level, slot = ts_value, level_value, index.get(chord)
                if slot is None:
                    chord = chord.strip()
                    if not chord:
                        raise ValueError
                    slot = index.get(chord)
            except ValueError:
                row = _split_row(raw)
                if row is None or isinstance(row, str):
                    if row:
                        diags.append((len(frames), no,
                                      FrameDiagnostic(detail=row, line_no=no)))
                    continue
                ts, chord, t_up, t_down, level = row
                slot = index.get(chord)
            if ts != frame_ts:
                if not isfinite(ts):  # a row without a finite timestamp is in no frame
                    diags.append((len(frames), no, FrameDiagnostic(
                        detail=f"timestamp {ts!r} is not finite; row dropped", line_no=no)))
                    continue
                if ups is not None:
                    close()
                if level is not frame_level:  # one float object, read from one text
                    key = _BITS(level)  # -0.0 keeps its sign, and a nan level is found
                    kind = memo.get(key) or memo.setdefault(key, at_level(level))
                frame_ts, frame_level = ts, level
                ups, downs = [None] * n_chords, [None] * n_chords
            elif level != frame_level and (level == level or frame_level == frame_level):
                diags.append((len(frames), no, FrameDiagnostic(
                    f"level {level!r} mm differs from the frame's first row "
                    f"({frame_level!r} mm); row dropped", frame_ts, no)))
                continue
            if slot is None or ups[slot] is not None:
                what = "unknown chord id" if slot is None else "duplicate row for chord"
                diags.append((len(frames), no, FrameDiagnostic(
                    f"{what} {chord!r}; row dropped", frame_ts, no)))
            else:
                ups[slot], downs[slot] = t_up, t_down
        line_no += len(block)
        if at_end and ups is not None:
            close()
        state, events = step_alarms(state, clogging)
        columns = [list(column) for column in zip(*frames)] or [[] for _ in range(8)]
        yield FrameChunk(*columns, [(f, e) for f, e in zip(judged, events) if e], misfits, diags)
        if at_end:
            return


def process_lines(lines: Iterable[str], config) -> Iterator[FrameChunk]:
    """The frame CSV to a ``FrameChunk`` per chunk of rows, reading at most one chunk
    ahead: estimates plus debounced clogging verdicts. Every setting, the polynomial
    too, is that of ``config``, a ``RunConfig`` (``resolve_polynomial`` derives one).

    Malformed rows and frames become diagnostics and the stream continues.
    Frames without a usable mean velocity leave the alarm state untouched.
    """
    if config.fpcf_derive and config.poly is None:
        raise ConfigError("fpcf.derive = true: pass the config through resolve_polynomial first")
    return _frames(lines, config)


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
