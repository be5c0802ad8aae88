import io
import math

import pytest

from partialflow import (
    AlarmEvent,
    ChordReading,
    ChordSpec,
    EstimateStatus,
    FpcfPolynomial,
    FrameDiagnostic,
    InvalidTimesError,
    OutOfRangeError,
    PipeGeometry,
    SensorFrame,
    estimate_flow,
    line_velocity,
    parse_config,
    process_stream,
    read_frame_rows,
    write_frame_rows,
)
from partialflow.simulator import transit_times

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
        est = estimate_flow(frame_for({"a": 0.0}, 85.0), [CHORD_A], FLAT_POLY, PIPE)
        assert est.status is EstimateStatus.OK
        assert est.flow_m3s == 0.0

    def test_velocity_scaling_doubles_flow(self):
        est1 = estimate_flow(frame_for({"a": 0.2, "b": 0.2}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY, PIPE)
        est2 = estimate_flow(frame_for({"a": 0.4, "b": 0.4}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY, PIPE)
        assert est2.flow_m3s == pytest.approx(2.0 * est1.flow_m3s, rel=1e-9)

    def test_multi_chord_reduces_to_single(self):
        single = estimate_flow(frame_for({"a": 0.3}, 85.0), [CHORD_A], FLAT_POLY, PIPE)
        double = estimate_flow(frame_for({"a": 0.3, "b": 0.3}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY, PIPE)
        assert double.flow_m3s == pytest.approx(single.flow_m3s, rel=1e-12)

    def test_weighted_mean(self):
        heavy = ChordSpec("a", 50.0, 0.3, ANGLE, weight=3.0)
        light = ChordSpec("b", 50.0, 0.3, ANGLE, weight=1.0)
        est = estimate_flow(frame_for({"a": 0.4, "b": 0.2}, 85.0, (heavy, light)),
                            [heavy, light], FLAT_POLY, PIPE)
        assert est.mean_line_velocity == pytest.approx(0.35, rel=1e-9)

    def test_all_chords_dry(self):
        est = estimate_flow(frame_for({"a": 0.2}, 40.0), [CHORD_A], FLAT_POLY, PIPE)
        assert est.status is EstimateStatus.DRY_CHORD
        assert est.flow_m3s is None

    def test_partial_dry_uses_wet_only(self):
        low = ChordSpec("lo", 30.0, 0.3, ANGLE)
        high = ChordSpec("hi", 120.0, 0.3, ANGLE)
        frame = frame_for({"lo": 0.3, "hi": 0.6}, 85.0, (low, high))
        est = estimate_flow(frame, [low, high], FLAT_POLY, PIPE)
        assert est.mean_line_velocity == pytest.approx(0.3, rel=1e-9)

    def test_invalid_times_status(self):
        frame = SensorFrame(0.0, (ChordReading("a", -1.0, 1e-4),), 85.0)
        est = estimate_flow(frame, [CHORD_A], FLAT_POLY, PIPE)
        assert est.status is EstimateStatus.INVALID_TIMES
        assert est.flow_m3s is None

    def test_fpcf_fallback_below_range(self):
        poly = FpcfPolynomial((2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 50.0, 250.0)
        low = ChordSpec("a", 20.0, 0.3, ANGLE)
        est = estimate_flow(frame_for({"a": 0.2}, 40.0, (low,)), [low], poly, PIPE)
        assert est.status is EstimateStatus.FPCF_OUT_OF_RANGE
        assert est.fpcf_applied == 1.0
        assert est.flow_m3s == pytest.approx(0.2 * est.area_m2, rel=1e-9)

    def test_no_polynomial_raw_product(self):
        est = estimate_flow(frame_for({"a": 0.2}, 85.0), [CHORD_A], None, PIPE)
        assert est.status is EstimateStatus.UNCORRECTED
        assert est.fpcf_applied == 1.0
        assert est.flow_m3s == est.mean_line_velocity * est.area_m2

    def test_plausibility_flag_retains_value(self):
        est = estimate_flow(frame_for({"a": 20.0}, 85.0), [CHORD_A], FLAT_POLY, PIPE)
        assert est.implausible_chords == ("a",)
        assert est.mean_line_velocity == pytest.approx(20.0, rel=1e-6)

    def test_k_cal_scales_flow(self):
        est1 = estimate_flow(frame_for({"a": 0.2}, 85.0), [CHORD_A], FLAT_POLY, PIPE, k_cal=1.0)
        est2 = estimate_flow(frame_for({"a": 0.2}, 85.0), [CHORD_A], FLAT_POLY, PIPE, k_cal=1.1)
        assert est2.flow_m3s == pytest.approx(1.1 * est1.flow_m3s, rel=1e-12)


FRAME_TEXT = """timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm
0.0,a,202696.0,202725.0,85.0
0.0,b,202696.0,202725.0,85.0
1.0,a,202696.0,202725.0,85.0
not-a-number,a,1,2,85.0
2.0,a,202696.0,202725.0,85.0
"""


class TestFrameCsv:
    def test_parse_groups_by_timestamp(self):
        items = list(read_frame_rows(io.StringIO(FRAME_TEXT)))
        frames = [f for f in items if isinstance(f, SensorFrame)]
        diags = [d for d in items if isinstance(d, FrameDiagnostic)]
        assert len(frames) == 3
        assert len(diags) == 1
        assert len(frames[0].readings) == 2
        assert frames[0].level_mm == 85.0
        assert frames[0].readings[0].t_up_s == pytest.approx(202696e-9, rel=1e-12)

    def test_round_trip(self):
        items = list(read_frame_rows(io.StringIO(FRAME_TEXT)))
        frames = [f for f in items if isinstance(f, SensorFrame)]
        buf = io.StringIO()
        write_frame_rows(frames, buf)
        again = [f for f in read_frame_rows(io.StringIO(buf.getvalue()))
                 if isinstance(f, SensorFrame)]
        assert len(again) == len(frames)
        for f1, f2 in zip(frames, again):
            assert f1.timestamp_s == f2.timestamp_s
            assert f1.level_mm == f2.level_mm
            for r1, r2 in zip(f1.readings, f2.readings):
                assert r1.t_up_s == pytest.approx(r2.t_up_s, rel=1e-12)

    def test_bad_field_count(self):
        items = list(read_frame_rows(io.StringIO("1.0,a,5,6\n")))
        assert len(items) == 1
        assert isinstance(items[0], FrameDiagnostic)

    def test_empty_input(self):
        assert list(read_frame_rows(io.StringIO(""))) == []


class TestProcessStream:
    def run(self, text, **kwargs):
        defaults = dict(chords=[CHORD_A, CHORD_B], poly=FLAT_POLY, pipe=PIPE)
        defaults.update(kwargs)
        return list(process_stream(read_frame_rows(io.StringIO(text)), **defaults))

    def test_empty(self):
        assert self.run("") == []

    def test_mixed_frames_and_diagnostics(self):
        results = self.run(FRAME_TEXT)
        estimates = [r for r in results if not isinstance(r, FrameDiagnostic)]
        diags = [r for r in results if isinstance(r, FrameDiagnostic)]
        assert len(estimates) == 3
        assert len(diags) == 1
        assert all(r.estimate.status is EstimateStatus.OK for r in estimates)

    def test_determinism(self):
        first = self.run(FRAME_TEXT)
        second = self.run(FRAME_TEXT)
        assert first == second

    def test_overfull_level_becomes_diagnostic(self):
        text = "0.0,a,202696.0,202725.0,900.0\n"
        results = self.run(text)
        assert len(results) == 1
        assert isinstance(results[0], FrameDiagnostic)

    def test_non_finite_readings_dropped(self):
        # 0.1 m/s at 85 mm is below the clogging boundary: the alarm rises
        # on the fifth frame and a frame without a finite velocity must
        # neither clear it nor report a nan flow
        t_up, t_down = (f"{t * 1e9!r}" for t in transit_times(0.1, CHORD_A, 1480.0))
        rows = []
        for k in range(8):
            a = ("nan", t_down) if k == 5 else ("inf", t_down) if k == 6 else (t_up, t_down)
            b = (t_up, "nan") if k == 5 else (t_up, t_down)
            rows += [f"{k}.0,a,{a[0]},{a[1]},85.0", f"{k}.0,b,{b[0]},{b[1]},85.0"]
        rows += ["8.0,a,1,2,nan", "9.0,a,1,2,inf"]
        results = self.run("\n".join(rows) + "\n")
        frames = [r for r in results if not isinstance(r, FrameDiagnostic)]
        diags = [r for r in results if isinstance(r, FrameDiagnostic)]
        assert [d.timestamp_s for d in diags] == [8.0, 9.0]
        assert [f.estimate.status for f in frames] == [EstimateStatus.OK] * 5 + [
            EstimateStatus.INVALID_TIMES, EstimateStatus.OK, EstimateStatus.OK]
        assert frames[5].verdict is None and frames[5].estimate.flow_m3s is None
        assert frames[6].estimate.chord_velocities == (("b", pytest.approx(0.1, rel=1e-9)),)
        assert all(math.isfinite(f.estimate.flow_m3s) for f in frames if f.estimate.flow_m3s)
        events = [f.alarm_event for f in frames if f.alarm_event is not None]
        assert events == [AlarmEvent.RAISED]

    def test_dropped_readings_are_diagnosed(self):
        frame = frame_for({"a": 0.2, "b": 0.4}, 85.0)
        stray = ChordReading("z", frame.readings[0].t_up_s, frame.readings[0].t_down_s)
        frame = SensorFrame(3.0, frame.readings + (stray, frame.readings[1]), 85.0)
        results = list(process_stream([frame], [CHORD_A, CHORD_B], FLAT_POLY, PIPE))
        diags, processed = results[:-1], results[-1]
        assert [(d.detail, d.timestamp_s) for d in diags] == [
            ("unknown chord id 'z'; row dropped", 3.0),
            ("duplicate row for chord 'b'; row dropped", 3.0),
        ]
        assert processed.estimate.status is EstimateStatus.OK
        assert processed.estimate.mean_line_velocity == pytest.approx(0.3, rel=1e-9)


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
    """Simulated segments through ``process`` and through ``process_stream``.

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
    frames = []
    for flow, level, count in [(3.0, 80.0, 70), (5.0, 200.0, 30), (4.0, 95.0, 40)]:
        spec = ScenarioSpec(flow_lps=flow, level_mm=level, noise_sigma_s=1e-9, seed=len(frames),
                            frame_count=count)
        for f in generate(spec, chords, config.pipe, config.params, config.quad):
            frames.append(SensorFrame(float(len(frames)), f.readings, f.level_mm))
    # below the polynomial's range with only the low chord wet, dry, overfull
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

    stream = [p for p in process_stream(frames, parsed.chords, poly, PIPE)
              if not isinstance(p, FrameDiagnostic)]
    assert len(stream) == len(records)
    written = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) == 5:
            written.setdefault(float(parts[0]), []).append(
                (parts[1], float(parts[2]) * 1e-9, float(parts[3]) * 1e-9))
    seen = set()
    for item in stream:
        est = item.estimate
        fields = records[est.timestamp_s]
        seen.add(fields["status"])
        assert fields["status"] == est.status.value
        if est.flow_m3s is None:
            assert fields["q_lps"] == "-"
            continue
        q_lps = float(fields["q_lps"])
        want = _closed_form_flow_lps(written[est.timestamp_s], est.level_mm, parsed.chords,
                                     poly, PIPE, 1.0)
        assert q_lps == pytest.approx(want, rel=1e-12)
        frame = frames[int(est.timestamp_s)]
        readings = [(r.chord_id, r.t_up_s, r.t_down_s) for r in frame.readings]
        want = _closed_form_flow_lps(readings, est.level_mm, parsed.chords, poly, PIPE, 1.0)
        assert est.flow_lps == pytest.approx(want, rel=1e-12)
        # the CSV holds transit times in ns to 17 digits; the velocity, a
        # difference of two times ~5000x smaller than either, keeps ~1e-12
        assert est.flow_lps == pytest.approx(q_lps, rel=1e-9)
    assert seen == {"ok" if poly else "uncorrected", "invalid_times", "dry_chord",
                    *(["fpcf_out_of_range"] if poly else [])}
