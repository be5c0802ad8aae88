"""Raw sensor frames to corrected flow estimates.

Wire format (CSV): ``timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm``,
one row per chord per frame, rows of one frame grouped by timestamp.
Transit times travel as nanoseconds and are converted to seconds here;
levels stay in millimeters up to the geometry calls.

Frames take one path in plain floats: ``process_lines`` reads the CSV a row at
a time, keeps one frame open, and yields each ``Frame`` and ``FrameDiagnostic`` in
input order.
"""

import functools
import math
from collections import namedtuple
from enum import Enum
from typing import Iterable, Iterator

from .calibration import _decimal
from .clogging import Debounce
from .config import ChordSpec
from .errors import ConfigError, InvalidTimesError
from .geometry import WaterLevel, segment_area

FRAME_CSV_HEADER = "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm"
# The levels whose values, and whose record templates in ``cli.cmd_process``, are kept:
# bounded for a log with a new level each frame.
LEVELS_KEPT = 1024


class EstimateStatus(Enum):
    OK = "ok"
    FPCF_OUT_OF_RANGE = "fpcf_out_of_range"
    DRY_CHORD = "dry_chord"
    INVALID_TIMES = "invalid_times"
    UNCORRECTED = "uncorrected"


def _transit_velocity(t_up, t_down, path_length_m, cos_angle):
    """v = L * (t_down - t_up) / (2 * t_up * t_down * cos(theta)), or None if a time is not
    positive (nan too), the denominator underflows to 0 or v is not finite."""
    if t_up > 0 and t_down > 0 and (den := 2.0 * t_up * t_down * cos_angle):
        v = path_length_m * (t_down - t_up) / den
        if v - v == 0.0:  # finite: inf - inf and nan - nan are nan
            return v
    return None


def line_velocity(t_up_s: float, t_down_s: float, chord: ChordSpec) -> float:
    """Axial velocity from the up/downstream transit-time pair.

    Positive when the with-flow pulse is the faster one.
    """
    v = _transit_velocity(t_up_s, t_down_s, chord.path_length_m, math.cos(chord.beam_angle_rad))
    if v is None:
        raise InvalidTimesError(f"transit times must be positive and give a finite velocity, "
                                f"got t_up={t_up_s!r}, t_down={t_down_s!r}")
    return v


# The values made per row or per frame are named tuples (a run's settings are records):
# one chord's transit times; one timestamped reading, per-chord readings plus the water
# level; a malformed row or frame, reported instead of an estimate.
ChordReading = namedtuple("ChordReading", "chord_id t_up_s t_down_s")
SensorFrame = namedtuple("SensorFrame", "timestamp_s readings level_mm")
FrameDiagnostic = namedtuple("FrameDiagnostic", "detail timestamp_s line_no",
                             defaults=(None, None))
# One frame's estimate: ``status`` an ``EstimateStatus``, ``clog`` True if clogging (None:
# no velocity, ``v_line`` and ``flow_m3s`` NaN), ``event`` the alarm event it fires or None.
Frame = namedtuple("Frame", "ts level v_line area fpcf flow_m3s status clog event")


def _frames(lines: Iterable[str], config) -> Iterator:
    """The records of ``process_lines``, each made as soon as it is known."""
    pipe, poly, boundary, k_cal = config.pipe, config.poly, config.boundary, config.k_cal
    chords = [(c.height_mm, c.path_length_m, math.cos(c.beam_angle_rad), c.weight)
              for c in config.chords]
    index = {c.chord_id: i for i, c in enumerate(config.chords)}
    misfit = f"mm is not within the pipe (0 to {1000 * pipe.diameter_m:g} mm)"
    isfinite, nan, n_chords, velocity = math.isfinite, math.nan, len(chords), _transit_velocity
    alarm, new = Debounce(config.debounce).step, tuple.__new__  # Frame(...), faster
    decimal = functools.partial(_decimal, float)

    @functools.lru_cache(maxsize=LEVELS_KEPT)
    def at_level(level: float):
        """What a frame's level alone sets (-0.0 what 0.0 does), None if it does not fit
        the pipe: the area, the FPCF and status of a frame with a velocity, the status of
        one without, the slot and constants of each wet chord, and the clogging threshold."""
        if not 0 <= level / 1000.0 <= pipe.diameter_m:  # a nan or infinite level too
            return None
        wet = [(i, length, cos, weight)
               for i, (height, length, cos, weight) in enumerate(chords) if height <= level]
        if poly is None:
            fpcf, status = 1.0, EstimateStatus.UNCORRECTED
        elif poly.h_min_mm <= level <= poly.h_max_mm and 0 < (fpcf := poly(level)) < math.inf:
            status = EstimateStatus.OK
        else:
            fpcf, status = 1.0, EstimateStatus.FPCF_OUT_OF_RANGE
        return (segment_area(WaterLevel(level / 1000.0), pipe), fpcf, status,
                EstimateStatus.INVALID_TIMES if wet else EstimateStatus.DRY_CHORD, wet,
                boundary.threshold(level))

    def close():
        """The open frame's ``Frame``, or its diagnostic if its level does not fit the
        pipe or its flow in L/s is not finite: each wet chord's velocity by
        ``line_velocity``'s rule, in the operation order the sums always had."""
        if kind is None:
            return FrameDiagnostic(f"level {frame_level!r} {misfit}", frame_ts)
        area, fpcf, status, no_v_status, wet, threshold = kind
        num = den = 0.0
        for i, length, cos, weight in wet:
            if ups[i] is not None:
                v = velocity(ups[i] * 1e-9, downs[i] * 1e-9, length, cos)
                if v is not None:
                    num += weight * v
                    den += weight
        if den > 0:
            v = num / den
            flow = k_cal * fpcf * v * area
            if not isfinite(1000.0 * flow):  # in L/s, the unit every record of it carries
                return FrameDiagnostic(f"flow k_cal * fpcf * v_line * area = {k_cal!r} * {fpcf!r}"
                                       f" * {v!r} * {area!r} is not finite in L/s", frame_ts)
            clog = v < threshold
            return new(Frame, (frame_ts, frame_level, v, area, fpcf, flow, status, clog,
                               alarm(clog)))
        return new(Frame, (frame_ts, frame_level, nan, area, 1.0, nan, no_v_status, None, None))

    # the ts and level texts of the last rows read, and their values
    ts_text = level_text = None
    ts_value = level_value = math.nan
    # the open frame: its ts and level, what its level sets, t_up_ns and t_down_ns per chord
    frame_ts = frame_level = kind = ups = downs = None
    for no, raw in enumerate(lines, 1):
        line = raw.strip()
        parts = line.split(",")
        try:
            t_text, chord, up_text, down_text, l_text = parts
            number = decimal if "_" in line and (  # float reads 1_0 as 10; a chord id may hold _
                "_" in t_text or "_" in up_text or "_" in down_text or "_" in l_text) else float
            if t_text != ts_text:
                ts_value, ts_text = number(t_text), t_text
            t_up, t_down = number(up_text), number(down_text)
            if l_text != level_text:
                level_value, level_text = number(l_text), l_text
            ts, level = ts_value, level_value
            slot = index.get(chord)
            if slot is None:
                chord = chord.strip()
                if not chord:
                    raise ValueError("empty chord id")
                slot = index.get(chord)
        except ValueError as exc:  # a blank, comment or header line is no row to report
            if line and line[0] != "#" and line.lower().replace(" ", "") != FRAME_CSV_HEADER:
                yield FrameDiagnostic(f"expected 5 fields, got {len(parts)}" if len(parts) != 5
                                      else f"unparseable row: {exc}", line_no=no)
            continue
        if ts != frame_ts:
            if not isfinite(ts):  # a row without a finite timestamp is in no frame
                yield FrameDiagnostic(f"timestamp {ts!r} is not finite; row dropped", line_no=no)
                continue
            if ups is not None:
                yield close()
            if level is not frame_level:  # one float object, read from one text
                kind = at_level(level)
            frame_ts, frame_level = ts, level
            ups, downs = [None] * n_chords, [None] * n_chords
        elif level != frame_level and (level == level or frame_level == frame_level):
            yield FrameDiagnostic(f"level {level!r} mm differs from the frame's first row "
                                  f"({frame_level!r} mm); row dropped", frame_ts, no)
            continue
        if slot is None or ups[slot] is not None:
            what = "unknown chord id" if slot is None else "duplicate row for chord"
            yield FrameDiagnostic(f"{what} {chord!r}; row dropped", frame_ts, no)
        else:
            ups[slot], downs[slot] = t_up, t_down
    if ups is not None:
        yield close()


def process_lines(lines: Iterable[str], config) -> Iterator:
    """The frame CSV to its records in input order, each as soon as it is known: Q =
    k_cal * FPCF * v_line * A, the ``EstimateStatus``, the debounced clogging verdict
    (a bool) and the alarm event of a frame, as a ``Frame``, when the next frame's first row
    (or the end) is read, and a ``FrameDiagnostic`` when a bad row is read. Every setting
    is ``config``'s, a ``RunConfig``, the polynomial too (``resolve_polynomial`` derives one).

    Each row is parsed once, by one path, into the one open frame, a slot per chord; a
    row with another timestamp closes it. A digit separator (``1_0``) makes a number
    unreadable, not a chord id (``path_a``). Unreadable rows, rows with no finite
    timestamp or whose level differs from their frame's first row, an unknown chord's
    row and a chord's second row become diagnostics; the rest of the frame counts. A
    frame whose level does not fit the pipe, or whose flow in L/s is not finite, becomes
    a diagnostic in its place and steps no alarm. Wet chords whose times ``line_velocity``
    accepts count, summed in configuration order; a frame without any leaves the alarm
    state untouched. A level outside the polynomial's validity range, or where its value
    is not finite and positive, gets FPCF = 1 and ``fpcf_out_of_range``.
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
