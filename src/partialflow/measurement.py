"""Raw sensor frames to corrected flow estimates.

Wire format (CSV): ``timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm``,
one row per chord per frame, rows of one frame grouped by timestamp.
Transit times travel as nanoseconds and are converted to seconds here;
levels stay in millimeters up to the geometry calls.

Frames take one columnar path, a chunk of rows at a time: ``process_lines``
reads the CSV and yields a ``FrameChunk`` of columns per chunk.
"""

import math
from collections import namedtuple
from enum import Enum
from itertools import compress, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from ._numpy import np
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


# The reader yields chunks of complete frames: ts and level_mm per frame;
# frame index, chord id, t_up_s, t_down_s and line number per row;
# diagnostics as (index of the frame it precedes, line, it).


def _parse_block(block: list) -> Optional[tuple]:
    """``_parse_rows`` at C level, or None unless every line but a leading header is a
    plain data row: five fields, a chord id and four numbers that ``float`` reads alike."""
    head = int(bool(block) and block[0].strip().lower().replace(" ", "") == FRAME_CSV_HEADER)
    block = block[head:]
    if not block or set(map(str.count, block, repeat(","))) != {4}:
        return None  # with usecols, loadtxt would accept 6+ fields
    chord = [line.split(",", 2)[1].strip() for line in block]
    try:
        ts, t_up, t_down, level = np.loadtxt(block, delimiter=",", usecols=(0, 2, 3, 4),
                                             comments=None, ndmin=2, unpack=True)
    except ValueError:
        return None
    if len(ts) != len(block) or "" in chord:  # loadtxt skips blank lines
        return None
    return (np.arange(head, head + len(block)), ts, chord, t_up, t_down, level), []


def _parse_rows(block: list) -> tuple:
    """A chunk's line offsets, ts, chord ids, t_up_ns, t_down_ns and level_mm, row by
    row, and (offset, detail) for the other lines; a row reports its first bad field."""
    rows, chord, diags = [], [], []
    for no, raw in enumerate(block):
        line = raw.strip()
        if not line or line[0] == "#" or (
            line[0] in "tT" and line.lower().replace(" ", "") == FRAME_CSV_HEADER
        ):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            diags.append((no, f"expected 5 fields, got {len(parts)}"))
            continue
        try:
            row = (no, *map(float, itemgetter(0, 2, 3, 4)(parts)))
            if not parts[1].strip():
                raise ValueError("empty chord id")
        except ValueError as exc:
            diags.append((no, f"unparseable row: {exc}"))
            continue
        rows.append(row)
        chord.append(parts[1].strip())
    nos, ts, t_up, t_down, level = np.array(rows, float).reshape(-1, 5).T
    return (nos.astype(np.int64), ts, chord, t_up, t_down, level), diags


def _read_rows(lines: Iterable[str]) -> Iterator[tuple]:
    """The frame CSV, a chunk of rows at a time, grouped into frames by timestamp.

    A chunk is one ``np.loadtxt`` call, or read row by row if any line is not a
    plain data row. Rows that cannot be read or have no finite timestamp, and rows
    whose level differs from their frame's first row, become line-numbered
    diagnostics; the rest of the frame counts. A chunk's last frame may go on in
    the next, so its rows carry over as columns, and the diagnostics from its
    first line on carry over with them.
    """
    source, size, line_no = iter(lines), FIRST_CHUNK_ROWS, 1
    carry, held = _parse_rows([])[0], []
    while True:
        block = list(islice(source, size))
        at_end, size = len(block) < size, min(2 * size, CHUNK_ROWS_CAP)
        cols, diags = _parse_block(block) or _parse_rows(block)
        # line numbers; the carried rows' columns are extended, not parsed again
        cols, diags = (cols[0] + line_no,) + cols[1:], held + [(no + line_no, d) for no, d in diags]
        line_no, block = line_no + len(block), None
        timed = np.isfinite(cols[1])
        if not timed.all():  # a row without a finite timestamp belongs to no frame
            diags += [(no, f"timestamp {t!r} is not finite; row dropped")
                      for no, t in zip(cols[0][~timed].tolist(), cols[1][~timed].tolist())]
            cols = tuple(list(compress(c, timed.tolist())) if isinstance(c, list) else c[timed]
                         for c in cols)
        nos, ts, chord, t_up, t_down, level = (
            old + new if isinstance(new, list) else np.concatenate((old, new))
            for old, new in zip(carry, cols))
        starts = np.flatnonzero(np.concatenate(([len(ts) > 0], ts[1:] != ts[:-1])))
        cut = len(ts) if at_end or not len(starts) else starts[-1]
        # a frame is complete when the next one starts, and comes out then; the
        # diagnostics from the open frame's first line on wait with its rows
        open_line = nos[cut].item() if cut < len(ts) else line_no
        held = [d for d in diags if d[0] >= open_line]
        diags = [d for d in diags if d[0] < open_line]
        pos = np.maximum(np.searchsorted(nos[starts], [no for no, _ in diags], "right") - 1, 0)
        out = [(p, no, FrameDiagnostic(detail=detail, line_no=no))
               for p, (no, detail) in zip(pos.tolist(), diags)]
        starts = starts[starts < cut]
        frame = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, cut)))
        lead = level[starts][frame]  # a nan level matches a nan first row
        keep = (level[:cut] == lead) | (np.isnan(level[:cut]) & np.isnan(lead))
        keep[starts] = True
        for k in np.flatnonzero(~keep).tolist():
            first = starts[frame[k]]
            out.append((frame[k], nos[k].item(), FrameDiagnostic(
                f"level {level[k].item()!r} mm differs from the frame's first row "
                f"({level[first].item()!r} mm); row dropped", ts[first].item(), nos[k].item())))
        kept = chord[:cut] if keep.all() else list(compress(chord, keep.tolist()))
        carry = nos[cut:], ts[cut:], chord[cut:], t_up[cut:], t_down[cut:], level[cut:]
        yield (ts[starts], level[starts], frame[keep], kept, t_up[:cut][keep] * 1e-9,
               t_down[:cut][keep] * 1e-9, nos[:cut][keep], out)
        if at_end:
            return
        kept = chord = None  # free this chunk before reading the next


class FrameChunk(namedtuple("FrameChunk", "ts level v_line area fpcf flow_m3s status clog "
                                           "events misfits diags")):
    """A chunk of estimated frames, an array per field: ``status`` indexes ``STATUSES``;
    ``clog`` is 0 normal, 1 clogging, 2 no velocity (``v_line``, ``flow_m3s`` NaN).
    ``events`` lists (frame, alarm event), ``misfits`` (frame, out-of-pipe
    diagnostic), ``diags`` (frame it precedes, line, diagnostic)."""

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


def _run(chunks, config) -> Iterator[FrameChunk]:
    """Q = k_cal * FPCF * v_line * A, verdicts and alarm events, a chunk at a time.

    A frame whose level does not fit the pipe, an unknown chord's row and a
    chord's second row become diagnostics. Wet chords with finite, positive
    times count, summed in configuration order. Levels outside the polynomial's
    validity range get FPCF = 1 and ``fpcf_out_of_range``: the polynomial is unguarded.
    """
    pipe, poly, specs = config.pipe, config.poly, config.chords
    index = {c.chord_id: i for i, c in enumerate(specs)}
    height, length, cos = np.array(
        [(c.height_mm, c.path_length_m, math.cos(c.beam_angle_rad)) for c in specs], float
    ).reshape(-1, 3).T
    state = AlarmState(config.debounce)
    for ts, level, frame, chord, t_up, t_down, line, diags in chunks:
        n_frames = len(ts)
        cidx = np.fromiter(map(index.get, chord, repeat(-1)), np.intp, len(chord))
        key, kept = frame * len(specs) + cidx, cidx >= 0
        if kept.any() and np.bincount(key[kept]).max() > 1:  # a chord's first row counts
            seen = set()
            for k in np.flatnonzero(kept).tolist():
                kept[k] = key[k] not in seen
                seen.add(key[k])
        for k in np.flatnonzero(~kept).tolist():
            what = "duplicate row for chord" if cidx[k] >= 0 else "unknown chord id"
            diags.append((frame[k], line[k], FrameDiagnostic(
                f"{what} {chord[k]!r}; row dropped", ts[frame[k]].item(), int(line[k]))))

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
                status, fpcf = np.full(n_frames, _UNCORRECTED), np.ones(n_frames)
            else:
                in_range = (level >= poly.h_min_mm) & (level <= poly.h_max_mm)
                status = np.where(in_range, _OK, _FPCF_OUT_OF_RANGE)
                fpcf = np.where(in_range & has_v, poly(level), 1.0)
            # scalar math, once per distinct level: numpy's arccos and sin
            # can differ from segment_area's in the last bit
            levels = np.where(fits, level, 0.0).tolist()
            areas = {x: segment_area(WaterLevel(x / 1000.0), pipe) for x in set(levels)}
            area = np.fromiter(map(areas.__getitem__, levels), float, n_frames)
            flow = config.k_cal * fpcf * mean_v * area
        status = np.where(wet.any(axis=1), np.where(has_v, status, _INVALID_TIMES), _DRY_CHORD)
        clog = mean_v < config.boundary.threshold(level)
        judged = np.flatnonzero(has_v).tolist()
        state, events = step_alarms(state, clog[judged].tolist())
        misfits = [(f, FrameDiagnostic(f"level {level[f].item()!r} mm is not within the pipe "
                                       f"(0 to {1000 * pipe.diameter_m:g} mm)", ts[f].item()))
                   for f in np.flatnonzero(~fits).tolist()]
        yield FrameChunk(ts, level, np.where(has_v, mean_v, np.nan), area, fpcf,
                         np.where(has_v, flow, np.nan), status, np.where(has_v, clog, 2),
                         list(compress(zip(judged, events), events)),
                         misfits, sorted(diags, key=itemgetter(0, 1)))


def process_lines(lines: Iterable[str], config) -> Iterator[FrameChunk]:
    """The frame CSV to a ``FrameChunk`` per chunk of rows, reading at most one chunk
    ahead: estimates plus debounced clogging verdicts. Every setting, the polynomial
    too, is that of ``config``, a ``RunConfig`` (``resolve_polynomial`` derives one).

    Malformed rows and frames become diagnostics and the stream continues.
    Frames without a usable mean velocity leave the alarm state untouched.
    """
    if config.fpcf_derive and config.poly is None:
        raise ConfigError("fpcf.derive = true: pass the config through resolve_polynomial first")
    return _run(_read_rows(lines), config)


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
