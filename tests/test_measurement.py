import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from partialflow import (
    AlarmEvent,
    ChordReading,
    ChordSpec,
    EntropyParams,
    EstimateStatus,
    FpcfPolynomial,
    FrameDiagnostic,
    InvalidTimesError,
    OutOfRangeError,
    PipeGeometry,
    RunConfig,
    SensorFrame,
    line_velocity,
    parse_config,
    process_lines,
    write_frame_rows,
)
from partialflow.measurement import FRAME_CSV_HEADER, STATUSES, _read_rows
from partialflow.simulator import transit_times

from conftest import process_frames

PIPE = PipeGeometry(0.250)
ANGLE = math.radians(45.0)
CHORD_A = ChordSpec("a", 50.0, 0.3, ANGLE)
CHORD_B = ChordSpec("b", 50.0, 0.3, ANGLE)
FLAT_POLY = FpcfPolynomial((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 50.0, 250.0)


def frame_for(velocities: dict, level_mm: float, chords=(CHORD_A, CHORD_B), c=1480.0):
    readings = []
    by_id = {ch.chord_id: ch for ch in chords}
    for cid, v in velocities.items():
        t_up, t_down = transit_times(v, by_id[cid], c)
        readings.append(ChordReading(cid, t_up, t_down))
    return SensorFrame(timestamp_s=0.0, readings=tuple(readings), level_mm=level_mm)


def estimate(frame, chords, poly, **kwargs):
    """The one-frame ``FrameChunk`` of ``frame``."""
    (chunk,) = process_frames([frame], chords, poly, PIPE, **kwargs)
    return chunk


class TestLineVelocity:
    def test_still_water(self):
        assert line_velocity(2e-4, 2e-4, CHORD_A) == 0.0

    def test_round_trip_exact(self):
        chord = ChordSpec("x", 50.0, 0.3, ANGLE)
        t_up, t_down = transit_times(0.2, chord, 1480.0)
        assert line_velocity(t_up, t_down, chord) == pytest.approx(0.2, rel=1e-9)

    def test_swap_negates(self):
        t_up, t_down = transit_times(0.35, CHORD_A, 1480.0)
        forward = line_velocity(t_up, t_down, CHORD_A)
        backward = line_velocity(t_down, t_up, CHORD_A)
        assert backward == -forward

    @pytest.mark.parametrize("t_up,t_down", [(math.nan, 2e-4), (2e-4, math.inf)])
    def test_non_finite_times_rejected(self, t_up, t_down):
        with pytest.raises(InvalidTimesError):
            line_velocity(t_up, t_down, CHORD_A)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(InvalidTimesError):
            line_velocity(0.0, 1e-4, CHORD_A)
        with pytest.raises(InvalidTimesError):
            line_velocity(1e-4, -1e-4, CHORD_A)


class TestChordSpec:
    def test_invariants(self):
        with pytest.raises(OutOfRangeError):
            ChordSpec("x", 50.0, 0.0, ANGLE)
        with pytest.raises(OutOfRangeError):
            ChordSpec("x", 50.0, 0.3, math.pi / 2)
        with pytest.raises(OutOfRangeError):
            ChordSpec("x", 50.0, 0.3, ANGLE, weight=-1.0)


class TestEstimateFlow:
    def test_zero_velocity_zero_flow(self):
        est = estimate(frame_for({"a": 0.0}, 85.0), [CHORD_A], FLAT_POLY)
        assert STATUSES[est.status[0]] is EstimateStatus.OK
        assert est.flow_m3s[0] == 0.0

    def test_velocity_scaling_doubles_flow(self):
        est1 = estimate(frame_for({"a": 0.2, "b": 0.2}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY)
        est2 = estimate(frame_for({"a": 0.4, "b": 0.4}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY)
        assert est2.flow_m3s[0] == pytest.approx(2.0 * est1.flow_m3s[0], rel=1e-9)

    def test_multi_chord_reduces_to_single(self):
        single = estimate(frame_for({"a": 0.3}, 85.0), [CHORD_A], FLAT_POLY)
        double = estimate(frame_for({"a": 0.3, "b": 0.3}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY)
        assert double.flow_m3s[0] == pytest.approx(single.flow_m3s[0], rel=1e-12)

    def test_weighted_mean(self):
        heavy = ChordSpec("a", 50.0, 0.3, ANGLE, weight=3.0)
        light = ChordSpec("b", 50.0, 0.3, ANGLE, weight=1.0)
        est = estimate(frame_for({"a": 0.4, "b": 0.2}, 85.0, (heavy, light)), [heavy, light],
                       FLAT_POLY)
        assert est.v_line[0] == pytest.approx(0.35, rel=1e-9)

    def test_all_chords_dry(self):
        est = estimate(frame_for({"a": 0.2}, 40.0), [CHORD_A], FLAT_POLY)
        assert STATUSES[est.status[0]] is EstimateStatus.DRY_CHORD
        assert math.isnan(est.flow_m3s[0])

    def test_partial_dry_uses_wet_only(self):
        low = ChordSpec("lo", 30.0, 0.3, ANGLE)
        high = ChordSpec("hi", 120.0, 0.3, ANGLE)
        frame = frame_for({"lo": 0.3, "hi": 0.6}, 85.0, (low, high))
        est = estimate(frame, [low, high], FLAT_POLY)
        assert est.v_line[0] == pytest.approx(0.3, rel=1e-9)

    def test_invalid_times_status(self):
        frame = SensorFrame(0.0, (ChordReading("a", -1.0, 1e-4),), 85.0)
        est = estimate(frame, [CHORD_A], FLAT_POLY)
        assert STATUSES[est.status[0]] is EstimateStatus.INVALID_TIMES
        assert math.isnan(est.flow_m3s[0])

    def test_fpcf_fallback_below_range(self):
        poly = FpcfPolynomial((2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 50.0, 250.0)
        low = ChordSpec("a", 20.0, 0.3, ANGLE)
        est = estimate(frame_for({"a": 0.2}, 40.0, (low,)), [low], poly)
        assert STATUSES[est.status[0]] is EstimateStatus.FPCF_OUT_OF_RANGE
        assert est.fpcf[0] == 1.0
        assert est.flow_m3s[0] == pytest.approx(0.2 * est.area[0], rel=1e-9)

    def test_no_polynomial_raw_product(self):
        est = estimate(frame_for({"a": 0.2}, 85.0), [CHORD_A], None)
        assert STATUSES[est.status[0]] is EstimateStatus.UNCORRECTED
        assert est.fpcf[0] == 1.0
        assert est.flow_m3s[0] == est.v_line[0] * est.area[0]

    def test_k_cal_scales_flow(self):
        est1 = estimate(frame_for({"a": 0.2}, 85.0), [CHORD_A], FLAT_POLY, k_cal=1.0)
        est2 = estimate(frame_for({"a": 0.2}, 85.0), [CHORD_A], FLAT_POLY, k_cal=1.1)
        assert est2.flow_m3s[0] == pytest.approx(1.1 * est1.flow_m3s[0], rel=1e-12)


FRAME_TEXT = """timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm
0.0,a,202696.0,202725.0,85.0
0.0,b,202696.0,202725.0,85.0
1.0,a,202696.0,202725.0,85.0
not-a-number,a,1,2,85.0
2.0,a,202696.0,202725.0,85.0
"""


class TestFrameCsv:
    def test_parse_groups_by_timestamp(self):
        ((ts, level, frame, _, t_up, _, _, diags),) = _read_rows(io.StringIO(FRAME_TEXT))
        assert len(ts) == 3
        assert len(diags) == 1
        assert frame.tolist().count(0) == 2
        assert level[0] == 85.0
        assert t_up[0] == pytest.approx(202696e-9, rel=1e-12)

    def test_round_trip(self):
        frames = [SensorFrame(float(k), frame_for({"a": 0.2, "b": 0.1 * k}, 85.0).readings,
                              80.0 + k) for k in range(3)]
        buf = io.StringIO()
        write_frame_rows(frames, buf)
        buf.seek(0)
        ((ts, level, frame, chord, t_up, t_down, _, diags),) = _read_rows(buf)
        readings = [r for f in frames for r in f.readings]
        assert diags == [] and frame.tolist() == [0, 0, 1, 1, 2, 2]
        assert ts.tolist() == [f.timestamp_s for f in frames]
        assert level.tolist() == [f.level_mm for f in frames]
        assert chord == [r.chord_id for r in readings]
        assert t_up.tolist() == pytest.approx([r.t_up_s for r in readings], rel=1e-12)
        assert t_down.tolist() == pytest.approx([r.t_down_s for r in readings], rel=1e-12)

    def test_bad_field_count(self):
        ((ts, *_, diags),) = _read_rows(io.StringIO("1.0,a,5,6\n"))
        assert len(ts) == 0
        assert [(d.line_no, d.detail) for _, _, d in diags] == [(1, "expected 5 fields, got 4")]

    def test_empty_input(self):
        ((ts, *_, diags),) = _read_rows(io.StringIO(""))
        assert len(ts) == 0 and diags == []


class TestProcessStream:
    def run(self, text):
        config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(CHORD_A, CHORD_B))
        (chunk,) = process_lines(io.StringIO(text), config, FLAT_POLY)
        return chunk

    def test_empty(self):
        chunk = self.run("")
        assert len(chunk.ts) == 0 and chunk.in_order([]) == []

    def test_mixed_frames_and_diagnostics(self):
        chunk = self.run(FRAME_TEXT)
        items = chunk.in_order(chunk.ts.tolist())
        # the bad row may belong to frame 1.0, which ends only at 2.0's row
        assert items[:1] + items[2:] == [0.0, 1.0, 2.0]
        assert isinstance(items[1], FrameDiagnostic) and items[1].line_no == 5
        assert [STATUSES[s] for s in chunk.status.tolist()] == [EstimateStatus.OK] * 3

    def test_determinism(self):
        first, second = self.run(FRAME_TEXT), self.run(FRAME_TEXT)
        as_bytes = [[c.tobytes() if isinstance(c, np.ndarray) else c for c in chunk]
                    for chunk in (first, second)]
        assert as_bytes[0] == as_bytes[1]

    def test_overfull_level_becomes_diagnostic(self):
        chunk = self.run("0.0,a,202696.0,202725.0,900.0\n")
        items = chunk.in_order(chunk.ts.tolist())
        assert len(items) == 1
        assert isinstance(items[0], FrameDiagnostic)

    @pytest.mark.parametrize("tail", ["", "broken row\n"], ids=["loadtxt", "row_by_row"])
    def test_nan_level_frame_is_one_diagnostic(self, tail, tmp_path, capsys):
        # nan != nan: each further row of a nan-level frame was also dropped with
        # "level nan mm differs from the frame's first row (nan mm)"
        from partialflow.cli import main

        text = "".join(f"{ts},{chord},202696.0,202725.0,{level}\n" for ts, level in [
            ("0.0", "nan"), ("1.0", "80.0"), ("2.0", "300.0")] for chord in "ab") + tail
        chunk = self.run(text)
        assert [d.detail for *_, d in chunk.diags] == ["expected 5 fields, got 1"] * len(tail[:1])
        assert [(f, d.detail) for f, d in chunk.misfits] == [
            (0, "level nan mm is not within the pipe (0 to 250 mm)"),
            (2, "level 300.0 mm is not within the pipe (0 to 250 mm)")]
        frames = tmp_path / "frames.csv"
        frames.write_text(text)
        assert main(["process", "--frames", str(frames)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"summary frames=1 diagnostics={2 + bool(tail)} alarms=0 clears=0")

    @pytest.mark.parametrize("tail", ["", "broken row\n"], ids=["loadtxt", "row_by_row"])
    def test_non_finite_timestamp_rows_dropped(self, tail):
        # nan rows made two one-chord frames (nan != nan) and inf rows a frame
        # ts=inf, each estimated as ok
        row = ",202696.0,202725.0,85.0\n"
        text = "".join(f"{ts},{chord}{row}" for ts, chord in [
            ("0.0", "a"), ("0.0", "b"), ("nan", "a"), ("nan", "b"), ("inf", "a"), ("-inf", "b"),
            ("2.0", "a"), ("2.0", "b")]) + tail
        chunk = self.run(text)
        assert chunk.ts.tolist() == [0.0, 2.0]
        assert [STATUSES[s] for s in chunk.status.tolist()] == [EstimateStatus.OK] * 2
        assert [(f, d.line_no, d.timestamp_s, d.detail) for f, _, d in chunk.diags][:4] == [
            (0, 3, None, "timestamp nan is not finite; row dropped"),
            (0, 4, None, "timestamp nan is not finite; row dropped"),
            (0, 5, None, "timestamp inf is not finite; row dropped"),
            (0, 6, None, "timestamp -inf is not finite; row dropped")]
        assert len(chunk.diags) == 4 + bool(tail)

    def test_non_finite_readings_dropped(self):
        # 0.1 m/s at 85 mm is below the clogging boundary: the alarm rises
        # on the fifth frame and a frame without a finite velocity must
        # neither clear it nor report a flow
        t_up, t_down = (f"{t * 1e9!r}" for t in transit_times(0.1, CHORD_A, 1480.0))
        rows = []
        for k in range(8):
            a = ("nan", t_down) if k == 5 else ("inf", t_down) if k == 6 else (t_up, t_down)
            b = (t_up, "nan") if k == 5 else (t_up, t_down)
            rows += [f"{k}.0,a,{a[0]},{a[1]},85.0", f"{k}.0,b,{b[0]},{b[1]},85.0"]
        rows += ["8.0,a,1,2,nan", "9.0,a,1,2,inf"]
        chunk = self.run("\n".join(rows) + "\n")
        assert chunk.diags == []
        assert [(f, d.timestamp_s) for f, d in chunk.misfits] == [(8, 8.0), (9, 9.0)]
        assert [STATUSES[s] for s in chunk.status[:8].tolist()] == [EstimateStatus.OK] * 5 + [
            EstimateStatus.INVALID_TIMES, EstimateStatus.OK, EstimateStatus.OK]
        assert chunk.clog[5] == 2
        assert np.isnan(chunk.flow_m3s[:8]).tolist() == [False] * 5 + [True, False, False]
        # frame 6 counts chord b alone
        assert chunk.v_line[6] == pytest.approx(0.1, rel=1e-9)
        assert [event for _, event in chunk.events] == [AlarmEvent.RAISED]

    def test_dropped_readings_are_diagnosed(self):
        a, b = frame_for({"a": 0.2, "b": 0.4}, 85.0).readings
        stray = ChordReading("z", a.t_up_s, a.t_down_s)
        # written below a header: a on line 2, z on 3, b on 4 and 5
        (chunk,) = process_frames([SensorFrame(3.0, (a, stray, b, b), 85.0)],
                                  [CHORD_A, CHORD_B], FLAT_POLY, PIPE)
        *diags, processed = chunk.in_order(chunk.ts.tolist())
        assert [(d.detail, d.timestamp_s, d.line_no) for d in diags] == [
            ("unknown chord id 'z'; row dropped", 3.0, 3),
            ("duplicate row for chord 'b'; row dropped", 3.0, 5),
        ]
        assert processed == 3.0
        assert STATUSES[chunk.status[0]] is EstimateStatus.OK
        assert chunk.v_line[0] == pytest.approx(0.3, rel=1e-9)


def _closed_form_flow_lps(rows, level_mm, chords, poly, pipe, k_cal):
    """Q = k_cal * FPCF(H) * v_line * A(H) by hand, from (chord, t_up_s, t_down_s) rows."""
    by_id = {c.chord_id: c for c in chords}
    num = den = 0.0
    for chord_id, t_up, t_down in rows:
        c = by_id[chord_id]
        if c.height_mm < level_mm and math.isfinite(t_up * t_down) and t_up > 0 and t_down > 0:
            v = c.path_length_m * (t_down - t_up) / (
                2.0 * t_up * t_down * math.cos(c.beam_angle_rad))
            num += c.weight * v
            den += c.weight
    theta = 2.0 * math.acos(1.0 - 2.0 * level_mm / 1000.0 / pipe.diameter_m)
    area = pipe.diameter_m**2 / 8.0 * (theta - math.sin(theta))
    fpcf = 1.0
    if poly is not None and poly.h_min_mm <= level_mm <= poly.h_max_mm:
        fpcf = sum(c * level_mm**k for k, c in enumerate(poly.coeffs))
    return 1000.0 * k_cal * fpcf * num / den * area


@pytest.mark.parametrize("poly", [
    FpcfPolynomial((0.6, 4e-3, -1e-5, 0.0, 0.0, 0.0, 0.0), 50.0, 180.0), None])
def test_columnar_path_matches_closed_form(tmp_path, capsys, poly):
    """Simulated segments through ``process``, against the written CSV and the frames.

    The log holds dry, invalid-time, out-of-range and overfull frames, a
    malformed row, and frames whose rows straddle the first chunk boundary.
    """
    from partialflow import ScenarioSpec, default_config, generate
    from partialflow.cli import main
    from partialflow.config import format_fit_document
    from partialflow.fpcf import FitResult
    from partialflow.measurement import FIRST_CHUNK_ROWS

    config = default_config()
    low = ChordSpec("low", 20.0, 0.3, ANGLE, weight=0.5)
    chords = config.chords + (low,)
    if poly is not None:  # one polynomial serves chords at one height only
        chords = tuple(ChordSpec(c.chord_id, 20.0, c.path_length_m, c.beam_angle_rad, c.weight)
                       for c in chords)
    frames = []
    for flow, level, count in [(3.0, 80.0, 70), (5.0, 200.0, 30), (4.0, 95.0, 40)]:
        spec = ScenarioSpec(flow_lps=flow, level_mm=level, noise_sigma_s=1e-9, seed=len(frames),
                            frame_count=count)
        for f in generate(spec, chords, config.pipe, config.params, config.quad):
            frames.append(SensorFrame(float(len(frames)), f.readings, f.level_mm))
    # below the polynomial's range with only the low chords wet, dry, overfull
    for k, level in [(10, 40.0), (11, 40.0), (12, 15.0), (13, 15.0), (4, 300.0)]:
        frames[k] = SensorFrame(float(k), frames[k].readings, level)
    frames[3] = SensorFrame(3.0, tuple(ChordReading(r.chord_id, -r.t_up_s, r.t_down_s)
                                       for r in frames[3].readings), frames[3].level_mm)
    buf = io.StringIO()
    write_frame_rows(frames, buf)
    lines = buf.getvalue().splitlines()
    lines.insert(20, "malformed row")
    # the last line of the first chunk and the next one belong to one frame
    assert lines[FIRST_CHUNK_ROWS - 1][:5] == lines[FIRST_CHUNK_ROWS][:5] == "84.0,"
    csv = tmp_path / "frames.csv"
    csv.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg_text = "".join(
        f"chord.{c.chord_id}.height_mm = {c.height_mm!r}\n"
        f"chord.{c.chord_id}.path_length_m = {c.path_length_m!r}\n"
        f"chord.{c.chord_id}.beam_angle_deg = {math.degrees(c.beam_angle_rad)!r}\n"
        f"chord.{c.chord_id}.weight = {c.weight!r}\n" for c in chords)
    if poly is not None:
        cfg_text += format_fit_document(FitResult(poly, 0.0, 0.0))
    cfg.write_text(cfg_text)
    parsed = parse_config(cfg_text)

    assert main(["process", "--config", str(cfg), "--frames", str(csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    records = {}
    for line in out:
        kind, _, rest = line.partition(" ")
        if kind == "frame":
            fields = dict(token.split("=", 1) for token in rest.split())
            records[float(fields["ts"])] = fields
    assert sum(line.startswith("diagnostic") for line in out) == 2
    assert len(records) == len(frames) - 1 and 4.0 not in records

    written = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) == 5:
            written.setdefault(float(parts[0]), []).append(
                (parts[1], float(parts[2]) * 1e-9, float(parts[3]) * 1e-9))
    seen = set()
    for ts, fields in records.items():
        seen.add(fields["status"])
        if fields["status"] in ("invalid_times", "dry_chord"):
            assert fields["q_lps"] == "-"
            continue
        q_lps, level_mm = float(fields["q_lps"]), float(fields["level_mm"])
        want = _closed_form_flow_lps(written[ts], level_mm, parsed.chords, poly, PIPE, 1.0)
        assert q_lps == pytest.approx(want, rel=1e-12)
        frame = frames[int(ts)]
        readings = [(r.chord_id, r.t_up_s, r.t_down_s) for r in frame.readings]
        want = _closed_form_flow_lps(readings, level_mm, parsed.chords, poly, PIPE, 1.0)
        # the CSV holds transit times in ns to 17 digits; the velocity, a
        # difference of two times ~5000x smaller than either, keeps ~1e-12
        assert q_lps == pytest.approx(want, rel=1e-9)
    assert seen == {"ok" if poly else "uncorrected", "invalid_times", "dry_chord",
                    *(["fpcf_out_of_range"] if poly else [])}


# Fields that both parsers read alike, and ones that ``float`` and ``np.loadtxt``
# read differently or not at all, so the chunk must go row by row.
_NUMBERS = ["202696.0", "85.0", "1e5", " 3.5 ", "nan", "inf", "-Infinity", "-0.0", "0.0",
            "1_0", '"1.0"', "x", "", "1.0 # note"]
_CHORDS = ["a", "b", " a ", "", "z", '"a"']
_OTHER_LINES = ["", "   ", "# comment", "1.0,a,5,6", "1.0,a,1,2,3,4",
                "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm", "\t1.0 , b ,1,2,3 "]


def _chunks_as_bytes(chunks) -> list:
    """``_read_rows`` chunks with arrays as their exact bytes (NaN, -0.0) and
    diagnostics as text (NaN timestamps compare unequal)."""
    return [tuple((c.dtype.str, c.tobytes()) if isinstance(c, np.ndarray)
                  else [(int(p), no, repr(d)) for p, no, d in c] if k == 7 else c
                  for k, c in enumerate(chunk)) for chunk in chunks]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["0.0", "1.0", "2.0", "nan"]), st.sampled_from(_CHORDS),
              st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS),
              st.sampled_from(_NUMBERS)).map(",".join),
    st.tuples(st.sampled_from(["0.0", "1.0", "2.0"]), st.sampled_from("ab"),
              st.sampled_from(["85.0", "-0.0"])).map(lambda r: f"{r[0]},{r[1]},1,2,{r[2]}"),
    st.sampled_from(_OTHER_LINES),
    st.text(alphabet="0123456789.,-+eEinfa #\"_\t\x00\x0c\u2028\u0661", max_size=20),
), max_size=60), st.sampled_from(["\n", "\r\n", ""]), st.sampled_from([(2, 4), (3, 8)]))
def test_chunk_parse_matches_row_by_row(lines, end, sizes):
    """Blank and odd lines, 4- and 6-field rows, ``1_0``, inline ``#``, quotes,
    a header anywhere, CRLF, padded and empty chord ids, non-finite and signed
    zero values, and frames straddling chunks: ``np.loadtxt`` chunks and
    row-by-row chunks give the same columns, line numbers and diagnostics."""
    from partialflow import measurement

    text = [line + end for line in lines]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "FIRST_CHUNK_ROWS", sizes[0])
        mp.setattr(measurement, "CHUNK_ROWS_CAP", sizes[1])
        fast = _chunks_as_bytes(measurement._read_rows(text))
        mp.setattr(measurement, "_parse_block", lambda block: None)
        assert _chunks_as_bytes(measurement._read_rows(text)) == fast


def test_chunk_parse_takes_plain_rows_only():
    from partialflow.measurement import _parse_block

    plain = ["0.0,a,202696.0,202725.0,85.0\n", "0.0, b ,-0.0,nan,-Infinity\r\n"]
    (nos, ts, chord, t_up, t_down, level), diags = _parse_block(plain)
    assert chord == ["a", "b"] and nos.tolist() == [0, 1] and diags == []
    assert math.copysign(1.0, t_up[1]) == -1.0 and math.isnan(t_down[1]) and level[1] == -math.inf
    header = " Timestamp_s, chord_id,t_up_ns,t_down_ns,level_mm\r\n"
    (nos, _, chord, *_), diags = _parse_block([header] + plain)
    assert chord == ["a", "b"] and nos.tolist() == [1, 2] and diags == []
    for line in ["\n", "   \n", "0.0,a,1,2\n", "0.0,a,1,2,3,4\n", "1_0,a,1,2,3\n",
                 "0.0,a,1,2,3 # note\n", '"0.0",a,1,2,3\n', FRAME_CSV_HEADER + "\n",
                 "0.0,,1,2,3\n", "0.0, ,1,2,3\n"]:
        assert _parse_block(plain + [line]) is None, line


# Transit times of chords a and b at 0.05 m/s, which clogs at 60 and 85 mm, at
# 0.5 m/s, which does not, and a pair with no finite time.
_TIMES = {v: ",".join(f"{t * 1e9!r}" for t in transit_times(v, CHORD_A, 1480.0))
          for v in (0.05, 0.5)} | {"bad": "nan,202725.0"}
# Two clogging frames raise the alarm (debounce 2) and the third frame clears it; an
# unknown chord z, a duplicate row, a level change within a frame, out-of-pipe and
# nan levels and malformed rows follow.
_EVERY_CASE = [
    (85.0, [("a", 0.05), ("b", 0.05)], ""), (85.0, [("a", 0.05), ("b", 0.05)], ""),
    (85.0, [("a", 0.5), ("z", 0.5), ("a", 0.5), ("b", 0.5)], ""),
    (85.0, [("a", 0.5), ("b", 0.5, 90.0)], "malformed row"),
    (float("nan"), [("a", 0.5), ("b", 0.5)], ""), (300.0, [("a", 0.5)], "1.0,a,1,2"),
]


def _frame_log(frames) -> str:
    lines = [FRAME_CSV_HEADER]
    for ts, (level, rows, after) in enumerate(frames):
        lines += [f"{float(ts)!r},{chord},{_TIMES[v]},{row[0] if row else level!r}"
                  for chord, v, *row in rows] + [after] * bool(after)
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from([85.0, 60.0, 40.0, 200.0, float("nan"), 300.0, -1.0]),
    st.lists(st.tuples(st.sampled_from("abz"), st.sampled_from(list(_TIMES))).map(list)
             | st.tuples(st.sampled_from("ab"), st.sampled_from(list(_TIMES)),
                         st.sampled_from([60.0, 90.0])).map(list), min_size=1, max_size=4),
    st.sampled_from(["", "", "", "malformed row", "1.0,a,1,2", "# note"])), max_size=12),
    st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 8)]))
def test_process_output_does_not_depend_on_chunking(frames, sizes):
    """``process`` records are the same bytes with one row per chunk, or a few, as with
    the default chunks: frames, diagnostics in line order, and alarm events carried
    from chunk to chunk."""
    from partialflow import measurement
    from partialflow.cli import _chunk_records

    config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(CHORD_A, CHORD_B), debounce=2)
    poly = FpcfPolynomial((0.6, 4e-3, -1e-5, 0.0, 0.0, 0.0, 0.0), 50.0, 180.0)
    text = _frame_log(_EVERY_CASE + frames)

    def output() -> str:
        return "".join(map(_chunk_records, process_lines(io.StringIO(text), config, poly)))

    whole = output()
    assert "event=raised" in whole and "event=cleared" in whole
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "FIRST_CHUNK_ROWS", sizes[0])
        mp.setattr(measurement, "CHUNK_ROWS_CAP", sizes[1])
        assert output() == whole
