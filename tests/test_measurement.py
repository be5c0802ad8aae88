import io
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from partialflow import (
    AlarmEvent,
    ChordReading,
    ChordSpec,
    ConfigError,
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
from partialflow.measurement import FRAME_CSV_HEADER, Frame
from partialflow.simulator import transit_times

from conftest import process_frames

DATA = Path(__file__).resolve().parent / "data"

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
    """The ``Frame`` of ``frame``."""
    (item,) = process_frames([frame], chords, PIPE, poly=poly, **kwargs)
    return item


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
        assert est.status is EstimateStatus.OK
        assert est.flow_m3s == 0.0

    def test_velocity_scaling_doubles_flow(self):
        est1 = estimate(frame_for({"a": 0.2, "b": 0.2}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY)
        est2 = estimate(frame_for({"a": 0.4, "b": 0.4}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY)
        assert est2.flow_m3s == pytest.approx(2.0 * est1.flow_m3s, rel=1e-9)

    def test_multi_chord_reduces_to_single(self):
        single = estimate(frame_for({"a": 0.3}, 85.0), [CHORD_A], FLAT_POLY)
        double = estimate(frame_for({"a": 0.3, "b": 0.3}, 85.0), [CHORD_A, CHORD_B], FLAT_POLY)
        assert double.flow_m3s == pytest.approx(single.flow_m3s, rel=1e-12)

    def test_weighted_mean(self):
        heavy = ChordSpec("a", 50.0, 0.3, ANGLE, weight=3.0)
        light = ChordSpec("b", 50.0, 0.3, ANGLE, weight=1.0)
        est = estimate(frame_for({"a": 0.4, "b": 0.2}, 85.0, (heavy, light)), [heavy, light],
                       FLAT_POLY)
        assert est.v_line == pytest.approx(0.35, rel=1e-9)

    def test_all_chords_dry(self):
        est = estimate(frame_for({"a": 0.2}, 40.0), [CHORD_A], FLAT_POLY)
        assert est.status is EstimateStatus.DRY_CHORD
        assert math.isnan(est.flow_m3s)

    def test_chord_at_the_water_line_is_wet(self):
        # a chord at the level gave dry_chord and no flow, where the FPCF and the
        # simulator count it as wet
        est = estimate(frame_for({"a": 0.2}, 50.0), [CHORD_A], FLAT_POLY)
        assert est.status is EstimateStatus.OK
        assert est.v_line == pytest.approx(0.2, rel=1e-9)

    def test_partial_dry_uses_wet_only(self):
        # uncorrected: one polynomial serves chords at one height only
        low = ChordSpec("lo", 30.0, 0.3, ANGLE)
        high = ChordSpec("hi", 120.0, 0.3, ANGLE)
        frame = frame_for({"lo": 0.3, "hi": 0.6}, 85.0, (low, high))
        est = estimate(frame, [low, high], None)
        assert est.v_line == pytest.approx(0.3, rel=1e-9)

    def test_invalid_times_status(self):
        frame = SensorFrame(0.0, (ChordReading("a", -1.0, 1e-4),), 85.0)
        est = estimate(frame, [CHORD_A], FLAT_POLY)
        assert est.status is EstimateStatus.INVALID_TIMES
        assert math.isnan(est.flow_m3s)

    def test_fpcf_fallback_below_range(self):
        poly = FpcfPolynomial((2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 50.0, 250.0)
        low = ChordSpec("a", 20.0, 0.3, ANGLE)
        est = estimate(frame_for({"a": 0.2}, 40.0, (low,)), [low], poly)
        assert est.status is EstimateStatus.FPCF_OUT_OF_RANGE
        assert est.fpcf == 1.0
        assert est.flow_m3s == pytest.approx(0.2 * est.area, rel=1e-9)

    def test_fpcf_fallback_where_the_polynomial_is_not_positive(self):
        # ((H - 55) / 5)^2 - 0.5 is positive at each table level (50, 60, ... mm), so the
        # config takes it, but negative at 55 mm: that frame printed fpcf=-0.5 status=ok
        poly = FpcfPolynomial((120.5, -4.4, 0.04, 0.0, 0.0, 0.0, 0.0), 50.0, 250.0)
        est = estimate(frame_for({"a": 0.2}, 55.0, (CHORD_A,)), [CHORD_A], poly)
        assert (est.status, est.fpcf) == (EstimateStatus.FPCF_OUT_OF_RANGE, 1.0)
        assert est.flow_m3s == pytest.approx(0.2 * est.area, rel=1e-9)
        est = estimate(frame_for({"a": 0.2}, 60.0, (CHORD_A,)), [CHORD_A], poly)
        assert est.status is EstimateStatus.OK and est.fpcf == pytest.approx(0.5, rel=1e-9)

    def test_no_polynomial_raw_product(self):
        est = estimate(frame_for({"a": 0.2}, 85.0), [CHORD_A], None)
        assert est.status is EstimateStatus.UNCORRECTED
        assert est.fpcf == 1.0
        assert est.flow_m3s == est.v_line * est.area

    def test_k_cal_scales_flow(self):
        est1 = estimate(frame_for({"a": 0.2}, 85.0), [CHORD_A], FLAT_POLY, k_cal=1.0)
        est2 = estimate(frame_for({"a": 0.2}, 85.0), [CHORD_A], FLAT_POLY, k_cal=1.1)
        assert est2.flow_m3s == pytest.approx(1.1 * est1.flow_m3s, rel=1e-12)


FRAME_TEXT = """timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm
0.0,a,202696.0,202725.0,85.0
0.0,b,202696.0,202725.0,85.0
1.0,a,202696.0,202725.0,85.0
not-a-number,a,1,2,85.0
2.0,a,202696.0,202725.0,85.0
"""


def _items(text: str) -> list:
    """The records of ``text`` with chords a and b and a flat polynomial."""
    config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(CHORD_A, CHORD_B),
                       poly=FLAT_POLY)
    return list(process_lines(io.StringIO(text), config))


def _split(items) -> tuple:
    """``items`` as its frames and its diagnostics, each in order."""
    return ([i for i in items if isinstance(i, Frame)],
            [i for i in items if isinstance(i, FrameDiagnostic)])


class TestFrameCsv:
    def test_parse_groups_by_timestamp(self):
        frames, diags = _split(_items(FRAME_TEXT))
        assert [f.ts for f in frames] == [0.0, 1.0, 2.0]
        assert len(diags) == 1
        assert frames[0].level == 85.0
        # frame 0 has both rows, the others chord a's alone: the same times, so the same
        # v, from times read in ns
        v = line_velocity(202696e-9, 202725e-9, CHORD_A)
        assert [f.v_line for f in frames] == pytest.approx([v, v, v], rel=1e-12)

    def test_round_trip(self):
        frames = [SensorFrame(float(k), frame_for({"a": 0.2, "b": 0.1 * k}, 85.0).readings,
                              80.0 + k) for k in range(3)]
        buf = io.StringIO()
        write_frame_rows(frames, buf)
        items = _items(buf.getvalue())
        assert all(type(i) is Frame for i in items)
        assert [i.ts for i in items] == [f.timestamp_s for f in frames]
        assert [i.level for i in items] == [f.level_mm for f in frames]
        means = [(line_velocity(a.t_up_s, a.t_down_s, CHORD_A)
                  + line_velocity(b.t_up_s, b.t_down_s, CHORD_B)) / 2
                 for a, b in (f.readings for f in frames)]
        assert [i.v_line for i in items] == pytest.approx(means, rel=1e-9)

    def test_bad_field_count(self):
        assert [(d.line_no, d.detail) for d in _items("1.0,a,5,6\n")] == [
            (1, "expected 5 fields, got 4")]

    def test_empty_input(self):
        assert _items("") == []


class TestProcessStream:
    run = staticmethod(_items)

    def test_empty(self):
        assert self.run("") == []

    def test_mixed_frames_and_diagnostics(self):
        items = self.run(FRAME_TEXT)
        # the bad row may belong to frame 1.0, which ends only at 2.0's row
        assert [i.ts for i in items[:1] + items[2:]] == [0.0, 1.0, 2.0]
        assert isinstance(items[1], FrameDiagnostic) and items[1].line_no == 5
        assert [i.status for i in _split(items)[0]] == [EstimateStatus.OK] * 3

    def test_determinism(self):
        first, second = self.run(FRAME_TEXT), self.run(FRAME_TEXT)
        assert repr(first) == repr(second)  # the repr of a float is exact, NaN too

    def test_overfull_level_becomes_diagnostic(self):
        items = self.run("0.0,a,202696.0,202725.0,900.0\n")
        assert len(items) == 1
        assert isinstance(items[0], FrameDiagnostic)

    @pytest.mark.parametrize("tail", ["", "broken row\n"], ids=["loadtxt", "row_by_row"])
    def test_nan_level_frame_is_one_diagnostic(self, tail, tmp_path, capsys):
        # nan != nan: each further row of a nan-level frame was also dropped with
        # "level nan mm differs from the frame's first row (nan mm)"
        from partialflow.cli import main

        text = "".join(f"{ts},{chord},202696.0,202725.0,{level}\n" for ts, level in [
            ("0.0", "nan"), ("1.0", "80.0"), ("2.0", "300.0")] for chord in "ab") + tail
        # the broken row comes before the frame still open at its line
        assert [(getattr(i, "line_no", None), i.ts if type(i) is Frame else i.detail)
                for i in self.run(text)] == [
            (None, "level nan mm is not within the pipe (0 to 250 mm)"), (None, 1.0),
            *[(7, "expected 5 fields, got 1")] * len(tail[:1]),
            (None, "level 300.0 mm is not within the pipe (0 to 250 mm)")]
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
        items = self.run(text)
        frames, diags = _split(items)
        assert [f.ts for f in frames] == [0.0, 2.0]
        assert [f.status for f in frames] == [EstimateStatus.OK] * 2
        # each before frame 0.0, still open at its line
        assert items[4] is frames[0]
        assert [(d.line_no, d.timestamp_s, d.detail) for d in items[:4]] == [
            (3, None, "timestamp nan is not finite; row dropped"),
            (4, None, "timestamp nan is not finite; row dropped"),
            (5, None, "timestamp inf is not finite; row dropped"),
            (6, None, "timestamp -inf is not finite; row dropped")]
        assert len(diags) == 4 + bool(tail)

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
        *frames, nan_level, inf_level = self.run("\n".join(rows) + "\n")
        assert all(type(f) is Frame for f in frames)
        assert [(d.timestamp_s, d.line_no) for d in (nan_level, inf_level)] == [
            (8.0, None), (9.0, None)]
        assert [f.status for f in frames] == [EstimateStatus.OK] * 5 + [
            EstimateStatus.INVALID_TIMES, EstimateStatus.OK, EstimateStatus.OK]
        assert frames[5].clog is None
        assert [math.isnan(f.flow_m3s) for f in frames] == [False] * 5 + [True, False, False]
        # frame 6 counts chord b alone
        assert frames[6].v_line == pytest.approx(0.1, rel=1e-9)
        assert [f.event for f in frames] == [None] * 4 + [AlarmEvent.RAISED] + [None] * 3

    def test_underflowing_times_leave_the_chord_out(self):
        # 2 * t_up * t_down * cos(theta) underflows to 0 at these times: numpy's v was
        # inf or nan, so the chord counted for nothing; a plain division would raise
        t_up, t_down = (f"{t * 1e9!r}" for t in transit_times(0.2, CHORD_B, 1480.0))
        frames = self.run(f"0.0,a,1e-200,2e-200,85.0\n0.0,b,{t_up},{t_down},85.0\n"
                          "1.0,a,1e-200,1e-200,85.0\n")
        assert frames[0].v_line == pytest.approx(0.2, rel=1e-9)
        assert [f.status for f in frames] == [EstimateStatus.OK, EstimateStatus.INVALID_TIMES]

    def test_stuck_clock_diagnostics_come_in_line_order(self):
        # every row at ts 0.0: the one frame stays open to the end, and each chunk put its
        # duplicate-row diagnostics in place by list.insert, O(records x diagnostics)
        text = "0.0,a,202696.0,202725.0,85.0\n0.0,b,202696.0,202725.0,85.0\n" * 2500
        *diags, frame = self.run(text)
        assert type(frame) is Frame and frame.ts == 0.0
        assert [(d.line_no, d.detail) for d in diags] == [
            (n, f"duplicate row for chord {'ba'[n % 2]!r}; row dropped") for n in range(3, 5001)]

    def test_stuck_clock_runs_in_bounded_memory(self):
        # the frame that never ends was carried whole from chunk to chunk and joined
        # again each time: 87 MB peak RSS on 80k rows, 4x the traced peak of 20k rows.
        # Every row here is a diagnostic, whose allocations tracemalloc makes ~15x
        # slower, so 12k and 3k rows show the bound.
        def rows(count: int):
            return (f"0.0,{'ab'[k % 2]},202696.0,202725.0,85.0\n" for k in range(count))

        _peak(rows(10), True)  # what a first run loads lazily is not the frame path's
        assert _peak(rows(12_000), True) <= 1.5 * _peak(rows(3_000), True)

    @pytest.mark.parametrize("through_cli", [False, True], ids=["process_lines", "process"])
    def test_new_level_every_frame_runs_in_bounded_memory(self, through_cli):
        # what a level sets, and the text of its records, are kept for at most 1024
        # levels: a log whose every frame has a new level does not grow them. Each new
        # level costs ~0.1 ms under tracemalloc, so 1,200 and 4,800 frames show the bound.
        def rows(count: int):
            return (f"{k}.0,a,202696.0,202725.0,{80.0 + k * 1e-4!r}\n" for k in range(count))

        _peak(rows(10), through_cli)
        assert _peak(rows(4_800), through_cli) <= 1.5 * _peak(rows(1_200), through_cli)

    def test_diagnostics_without_a_frame(self):
        assert [(d.line_no, d.detail) for d in self.run("broken row\n0.0,a,1,2\n")] == [
            (1, "expected 5 fields, got 1"), (2, "expected 5 fields, got 4")]

    def test_each_record_comes_out_when_its_row_is_read(self):
        # a diagnostic at its row's line; a frame, or the diagnostic in place of one that
        # does not fit the pipe, at the next frame's first row or at the end of the input
        text = ["broken row\n", "0.0,a,1\n", "0.0,a,202696.0,202725.0,85.0\n",
                "1.0,a,202696.0,202725.0,900.0\n", "1.0,z,1,2,900.0\n",
                "2.0,a,202696.0,202725.0,85.0\n", "3.0,a,202696.0,202725.0,85.0\n",
                "x\n", "4.0,a,202696.0,202725.0,85.0\n", "# comment\n"]
        read = 0

        def counting():
            nonlocal read
            for line in text:
                read += 1
                yield line

        config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(CHORD_A, CHORD_B),
                           poly=FLAT_POLY)
        got = [(read, i.ts if type(i) is Frame else i.line_no or i.timestamp_s)
               for i in process_lines(counting(), config)]
        assert got == [(1, 1), (2, 2), (4, 0.0), (5, 5), (6, 1.0), (7, 2.0), (8, 8), (9, 3.0),
                       (10, 4.0)]

    def test_underived_polynomial_refused(self):
        # a fpcf.derive = true config without its derived polynomial ran uncorrected
        config = parse_config("fpcf.derive = true\n")
        with pytest.raises(ConfigError, match="resolve_polynomial"):
            process_lines(io.StringIO(FRAME_TEXT), config)

    def test_dropped_readings_are_diagnosed(self):
        a, b = frame_for({"a": 0.2, "b": 0.4}, 85.0).readings
        stray = ChordReading("z", a.t_up_s, a.t_down_s)
        # written below a header: a on line 2, z on 3, b on 4 and 5
        *diags, processed = process_frames([SensorFrame(3.0, (a, stray, b, b), 85.0)],
                                           [CHORD_A, CHORD_B], PIPE, poly=FLAT_POLY)
        assert [(d.detail, d.timestamp_s, d.line_no) for d in diags] == [
            ("unknown chord id 'z'; row dropped", 3.0, 3),
            ("duplicate row for chord 'b'; row dropped", 3.0, 5),
        ]
        assert processed.ts == 3.0
        assert processed.status is EstimateStatus.OK
        assert processed.v_line == pytest.approx(0.3, rel=1e-9)


def _peak(lines, through_cli: bool = False) -> int:
    """The traced peak memory of ``lines`` through ``process_lines``, or through
    ``process`` with its records written to a sink that keeps nothing."""
    import gc
    import sys

    from partialflow.cli import main

    class Sink:
        def write(self, text):
            return len(text)

    config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(CHORD_A, CHORD_B),
                       poly=FLAT_POLY)
    gc.collect()  # empties the free lists, whose blocks a run would reuse untraced
    tracemalloc.start()
    try:
        if through_cli:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sys, "stdin", lines)
                mp.setattr(sys, "stdout", Sink())
                main(["process", "--frames", "-"])
        else:
            for _ in process_lines(lines, config):
                pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    The log holds dry, invalid-time, out-of-range and overfull frames and a
    malformed row.
    """
    from partialflow import ScenarioSpec, default_config, generate
    from partialflow.cli import main
    from partialflow.config import format_fit_document
    from partialflow.fpcf import FitResult

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


# Fields that ``float`` reads as they stand, and ones it reads only stripped or not at all.
_NUMBERS = ["202696.0", "85.0", "1e5", " 3.5 ", "nan", "inf", "-Infinity", "-0.0", "0.0",
            "1_0", '"1.0"', "x", "", "1.0 # note"]
_CHORDS = ["a", "b", " a ", "", "z", '"a"']
_OTHER_LINES = ["", "   ", "# comment", "1.0,a,5,6", "1.0,a,1,2,3,4",
                "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm", "\t1.0 , b ,1,2,3 "]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["0.0", "1.0", "2.0", "nan"]), st.sampled_from(_CHORDS),
              st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS),
              st.sampled_from(_NUMBERS)).map(",".join),
    st.tuples(st.sampled_from(["0.0", "1.0", "2.0"]), st.sampled_from("ab"),
              st.sampled_from(["85.0", "-0.0"])).map(lambda r: f"{r[0]},{r[1]},1,2,{r[2]}"),
    st.sampled_from(_OTHER_LINES),
    st.text(alphabet="0123456789.,-+eEinfa #\"_\t\x00\x0c\x1c\u2028\u0661", max_size=20),
), max_size=60), st.sampled_from(["\n", "\r\n", ""]))
def test_chunk_parse_matches_row_by_row(lines, end):
    """Blank and odd lines, 4- and 6-field rows, ``1_0``, inline ``#``, quotes,
    a header anywhere, CRLF, padded and empty chord ids, non-finite and signed
    zero values: the one reader reports each line that the reference reader refuses,
    with its detail, as the line is read, and gives the records of the rows that the
    reference reader takes, written plainly, a line for each line."""
    text = [line + end for line in lines]
    config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(CHORD_A, CHORD_B),
                       poly=FLAT_POLY, debounce=1)
    read = 0

    def feed():
        nonlocal read
        for read, line in enumerate(text, 1):
            yield line

    got = [(read, item) for item in process_lines(feed(), config)]
    refused = [(read, item.line_no, item.detail) for read, item in got
               if type(item) is FrameDiagnostic and item.detail.startswith(_PARSE_DETAILS)]
    rows = [_reference_row(raw) for raw in text]
    assert refused == [(no, no, row) for no, row in enumerate(rows, 1) if type(row) is str]
    plain = ["" if row is None or type(row) is str else
             f"{row[0]!r},{row[1]},{row[2]!r},{row[3]!r},{row[4]!r}" for row in rows]
    rest = [item for _, item in got
            if not (type(item) is FrameDiagnostic and item.detail.startswith(_PARSE_DETAILS))]
    assert repr(rest) == repr(list(process_lines(plain, config)))  # exact floats, NaN too


_PARSE_DETAILS = ("expected 5 fields, got ", "unparseable row: ")


def _reference_row(raw: str):
    """The reference reading of a frame CSV line, stripped and then field by field: None
    for a blank, comment or header line, the detail of its diagnostic for its first bad
    field, else (ts, chord id, t_up_ns, t_down_ns, level_mm)."""
    line = raw.strip()
    if not line or line[0] == "#" or line.lower().replace(" ", "") == FRAME_CSV_HEADER:
        return None
    parts = line.split(",")
    if len(parts) != 5:
        return f"expected 5 fields, got {len(parts)}"

    def number(text):
        if "_" in text:
            raise ValueError(f"digit separator in {text.strip()!r}")
        return float(text)

    try:
        ts, t_up, t_down, level = (number(parts[k]) for k in (0, 2, 3, 4))
        if not parts[1].strip():
            raise ValueError("empty chord id")
    except ValueError as exc:
        return f"unparseable row: {exc}"
    return ts, parts[1].strip(), t_up, t_down, level


@pytest.mark.parametrize("field", [0, 2, 3, 4], ids=["ts", "t_up", "t_down", "level"])
@pytest.mark.parametrize("padded", [False, True], ids=["as_it_stands", "padded"])
def test_digit_separator_is_unparseable(field, padded):
    """``float`` reads ``1_0`` as 10.0, so a numeric frame field holding it was read as
    data. It is a bad row, named as ``calibration._decimal`` names it, padded or not."""
    row = "0.0,a,202696.0,202725.0,85.0".split(",")
    row[field] = " 1_0 " if padded else "1_0"
    diag, frame = _items(f"0.0,b,202696.0,202725.0,85.0\n{','.join(row)}\n")
    assert (diag.line_no, diag.timestamp_s, diag.detail) == (
        2, None, "unparseable row: digit separator in '1_0'")
    assert (frame.ts, frame.level) == (0.0, 85.0)


def test_chord_id_with_an_underscore_reads_as_it_stands():
    """Only a numeric field's ``_`` makes a row unparseable, not a chord id's."""
    chord = ChordSpec("path_1", 50.0, 0.3, ANGLE)
    config = RunConfig(pipe=PIPE, params=EntropyParams(), chords=(chord,), poly=FLAT_POLY)
    frame, again = process_lines(["0.0,path_1,202696.0,202725.0,85.0\n",
                                  "1.0,path_1,202696.0,202725.0,85.0\n"], config)
    assert frame.v_line == again.v_line == pytest.approx(
        line_velocity(202696e-9, 202725e-9, chord), rel=1e-12)


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
    st.sampled_from(["", "", "", "malformed row", "1.0,a,1,2", "# note"])), max_size=12))
def test_process_output_does_not_depend_on_chunking(tmp_path_factory, frames):
    """``process`` writes, byte for byte, one f-string per record of ``process_lines``:
    frames, diagnostics in line order, and alarm events raised and cleared."""
    import sys

    from partialflow.cli import main
    from partialflow.config import format_fit_document
    from partialflow.fpcf import FitResult

    from conftest import record_by_record

    poly = FpcfPolynomial((0.6, 4e-3, -1e-5, 0.0, 0.0, 0.0, 0.0), 50.0, 180.0)
    cfg_text = format_fit_document(FitResult(poly, 0.0, 0.0)) + "clog.debounce = 2\n" + "".join(
        f"chord.{c.chord_id}.height_mm = {c.height_mm!r}\n"
        f"chord.{c.chord_id}.path_length_m = {c.path_length_m!r}\n"
        f"chord.{c.chord_id}.beam_angle_deg = {math.degrees(c.beam_angle_rad)!r}\n"
        for c in (CHORD_A, CHORD_B))
    text = _frame_log(_EVERY_CASE + frames)
    items = list(process_lines(io.StringIO(text), parse_config(cfg_text)))
    lines = [d.line_no for d in items if isinstance(d, FrameDiagnostic) and d.line_no]
    assert lines == sorted(lines)
    whole = record_by_record(items)
    assert "event=raised" in whole and "event=cleared" in whole
    cfg = tmp_path_factory.mktemp("process") / "run.cfg"
    cfg.write_text(cfg_text)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", io.StringIO(text))
        mp.setattr(sys, "stdout", out)
        assert main(["process", "--config", str(cfg)]) == 0
    assert out.getvalue() == whole


@pytest.mark.parametrize("polynomial", ["stored", "none", "derive"])
def test_frames_hold_library_values(polynomial):
    """A ``Frame``'s ``status`` is an ``EstimateStatus`` and its ``clog`` the verdict as a
    bool, or None exactly where the frame has no velocity (``invalid_times`` or
    ``dry_chord``); they were an index into a status table and 0, 1 or 2."""
    from partialflow.config import load_config, resolve_polynomial

    path = None if polynomial == "none" else str(DATA / f"mixed_{polynomial}.cfg")
    config, _ = resolve_polynomial(load_config(path))
    with open(DATA / "mixed_frames.csv", encoding="utf-8") as lines:
        frames = [r for r in process_lines(lines, config) if type(r) is Frame]
    no_velocity = {EstimateStatus.INVALID_TIMES, EstimateStatus.DRY_CHORD}
    assert all(type(f.status) is EstimateStatus for f in frames)
    assert all(f.clog is True or f.clog is False or f.clog is None for f in frames)
    assert all((f.clog is None) == math.isnan(f.v_line) == (f.status in no_velocity)
               for f in frames)
    assert {f.clog for f in frames} == {True, False, None}
    assert no_velocity <= {f.status for f in frames}


def test_what_a_level_sets_is_worked_out_once_per_value(monkeypatch):
    """A level's area, FPCF, wet chords and threshold are worked out once per level value,
    however its text reads (70.0 and 70.00, 0.0 and -0.0) and however far apart its frames
    are; a level outside the pipe (nan, 300 mm) sets nothing and gives the diagnostic in
    its frame's place. 0.0 and -0.0 were worked out apart, and nan and 300 mm once each."""
    from partialflow import measurement

    calls, area = [], measurement.segment_area

    def counting(level, pipe):
        calls.append(level)
        return area(level, pipe)

    monkeypatch.setattr(measurement, "segment_area", counting)
    texts = ["70.0", "80.0", "70.00", "0.0", "-0.0", "nan", "300.0"]
    items = _items("".join(f"{k}.0,a,202696.0,202725.0,{texts[k % 7]}\n" for k in range(28)))
    assert len(calls) == 3
    assert [type(i) for i in items] == [
        FrameDiagnostic if texts[k % 7] in ("nan", "300.0") else Frame for k in range(28)]
    assert [i.detail for i in items if type(i) is FrameDiagnostic] == [
        f"level {level} mm is not within the pipe (0 to 250 mm)" for level in ("nan", "300.0")
    ] * 4
    assert [math.copysign(1.0, i.level) for i in items if type(i) is Frame and not i.level] == [
        1.0, -1.0] * 4
