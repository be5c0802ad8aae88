"""End-to-end acceptance criteria for the measurement chain.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers (run with ``pytest -s`` to see them live).

Two checks on the full-range degree-6 polynomial (criterion 7) are
expected to fail for the as-built profile model: the correction-factor
curve steepens sharply toward the full-pipe end, which a single global
degree-6 fit cannot track at 1e-3 RMS, and the independently derived
reference polynomial embeds device details that shift it by more than
the allowed band over part of the range. Both run honestly and report
the measured values; the smooth operating band (criteria 8-10) is
unaffected.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from partialflow import (
    PipeGeometry,
    ProfileModel,
    ProfilePoint,
    QuadratureSpec,
    TrialRecord,
    WaterLevel,
    calibration_factor,
    classify,
    error_table,
    fpcf,
    fwme,
    line_velocity,
    normalized_velocity,
    repeatability,
    reynolds,
    segment_area,
)
from partialflow.calibration import first_segments
from partialflow.clogging import AlarmEvent, DecisionBoundary, Verdict
from partialflow.config import default_config
from partialflow.measurement import ChordSpec, EstimateStatus, Frame
from partialflow.quadrature import adaptive_integrate
from partialflow.simulator import (
    ScenarioSpec,
    WeirMode,
    baseline_level_mm,
    generate,
    transit_times,
)

from conftest import RIG_REFERENCE_FPCF_COEFFS, process_frames, rig_reference_fpcf

REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"

PIPE = PipeGeometry(0.250)
CONFIG = default_config()


def report(criterion: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] {criterion}: {marker}{suffix}")


def run_pipeline(frames, poly, k_cal=1.0, debounce=5):
    return process_frames(frames, CONFIG.chords, PIPE, poly=poly, k_cal=k_cal,
                          boundary=DecisionBoundary(), debounce=debounce)


def test_c01_fwme_oracle():
    before = fwme([(2.0, 8.51), (3.0, 2.62), (4.0, 1.46), (5.0, 0.42), (6.0, 0.23)])
    after = fwme([(2.0, 3.57), (3.0, -0.42), (4.0, -0.44), (5.0, -0.60), (6.0, 0.07)])
    weir1 = fwme([(2.0, 3.31), (3.0, 7.61), (4.0, 7.15), (5.0, 4.95)])
    weir2 = fwme([(2.0, -2.57), (3.0, 0.33), (4.0, -0.81), (5.0, -1.85)])
    ok = (
        abs(before - 1.71) <= 0.005
        and abs(after - 0.08) <= 0.005
        and abs(weir1 - 5.91) <= 0.005
        and abs(weir2 - (-1.19)) <= 0.005
    )
    report("1 FWME oracle", ok,
           f"before={before:.4f} after={after:.4f} weir1={weir1:.4f} weir2={weir2:.4f}")
    assert ok


def test_c02_reynolds_reproduction():
    re_low = reynolds(0.002, WaterLevel(0.065), PIPE)
    re_high = reynolds(0.006, WaterLevel(0.100), PIPE)
    ok = 2.9e4 <= re_low <= 3.1e4 and 6.8e4 <= re_high <= 7.2e4
    report("2 Reynolds reproduction", ok, f"Re(2L/s,65mm)={re_low:.0f} Re(6L/s,100mm)={re_high:.0f}")
    assert ok


def test_c03_geometry_identities():
    full = math.pi * 0.250**2 / 4.0
    half_err = abs(segment_area(WaterLevel(0.125), PIPE) - full / 2.0) / (full / 2.0)
    full_err = abs(segment_area(WaterLevel(0.250), PIPE) - full) / full
    worst = 0.0
    for level_mm in range(0, 251):
        level = level_mm / 1000.0
        total = segment_area(WaterLevel(level), PIPE) + segment_area(
            WaterLevel(0.250 - level), PIPE
        )
        worst = max(worst, abs(total - full) / full)
    ok = half_err <= 1e-12 and full_err <= 1e-12 and worst <= 1e-12
    report("3 geometry identities", ok,
           f"half={half_err:.2e} full={full_err:.2e} sweep={worst:.2e}")
    assert ok


def test_c04_transit_time_round_trip():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        path = rng.uniform(0.05, 0.5)
        angle = rng.uniform(0.1, 1.4)
        sound = rng.uniform(1000.0, 1600.0)
        velocity = rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0])
        chord = ChordSpec("x", 50.0, path, angle)
        t_up, t_down = transit_times(velocity, chord, sound)
        recovered = line_velocity(t_up, t_down, chord)
        worst = max(worst, abs(recovered - velocity) / abs(velocity))
    ok = worst <= 1e-9
    report("4 transit-time round trip", ok, f"worst rel err={worst:.2e} over 100 draws")
    assert ok


def test_c05_profile_normalization():
    worst = 0.0
    for level_mm in (65.0, 100.0, 125.0, 150.0, 200.0):
        model = ProfileModel(pipe=PIPE, level=WaterLevel(level_mm / 1000.0))
        v = normalized_velocity(ProfilePoint(0.0, model.dip_height_m), model)
        worst = max(worst, abs(v - 1.0))
    ok = worst <= 1e-6
    report("5 profile normalization", ok, f"worst |v-1| at dip = {worst:.2e}")
    assert ok


def test_c06_quadrature_convergence():
    model = ProfileModel(pipe=PIPE, level=WaterLevel(0.125))
    coarse = fpcf(model, 0.050)
    fine = fpcf(model, 0.050, QuadratureSpec(rel_tol=1e-9))
    refinement_gap = abs(fine - coarse)

    poly_value, _ = adaptive_integrate(lambda x: 5 * x**4 - 2 * x + 1, -1.0, 2.0)
    poly_exact = (2.0**5 - 2.0**2 + 2.0) - (-1.0 - 1.0 - 1.0)
    poly_err = abs(poly_value - poly_exact) / abs(poly_exact)

    def width(y):
        return 2.0 * np.sqrt(np.maximum(0.125**2 - (y - 0.125) ** 2, 0.0))

    area_value, _ = adaptive_integrate(width, 0.0, 0.125)
    area_exact = math.pi * 0.250**2 / 8.0
    area_err = abs(area_value - area_exact) / area_exact

    ok = refinement_gap < 1e-4 and poly_err <= 1e-6 and area_err <= 1e-6
    report("6 quadrature convergence", ok,
           f"refinement gap={refinement_gap:.2e} poly={poly_err:.2e} segment={area_err:.2e}")
    assert ok


def test_c07_emit_deviation_report(full_range_fit):
    REPORT_DIR.mkdir(exist_ok=True)
    out = REPORT_DIR / "fpcf_deviation.csv"
    with out.open("w") as fh:
        fh.write("H_mm,pipeline_fit,reference_poly,deviation\n")
        for level in np.arange(50.0, 250.5, 5.0):
            level = float(level)
            ours = full_range_fit.polynomial(level)
            ref = rig_reference_fpcf(level)
            fh.write(f"{level!r},{ours!r},{ref!r},{ours - ref!r}\n")
    ok = out.exists() and out.stat().st_size > 0
    report("7c deviation report emitted", ok, str(out))
    assert ok


def test_c07_fit_residual_gate(full_range_fit):
    rms = full_range_fit.rms_residual
    ok = rms <= 1e-3
    report("7a full-range fit RMS <= 1e-3", ok,
           f"rms={rms:.5f} max={full_range_fit.max_residual:.5f} "
           "(degree-6 cannot track the steep full-pipe end of this model)")
    assert ok, (
        f"RMS residual {rms:.5f} exceeds 1e-3: the correction-factor curve "
        "has genuine non-polynomial structure near the full-pipe end"
    )


def test_c07_reference_agreement_gate(full_range_fit):
    levels = np.arange(60.0, 240.5, 5.0)
    deviations = [
        full_range_fit.polynomial(float(h)) - rig_reference_fpcf(float(h)) for h in levels
    ]
    worst = max(abs(d) for d in deviations)
    where = float(levels[int(np.argmax(np.abs(deviations)))])
    ok = worst <= 0.15
    report("7b reference-polynomial agreement +/-0.15 on [60,240]", ok,
           f"max |dev|={worst:.4f} at H={where:.0f} mm (report: reports/fpcf_deviation.csv)")
    assert ok, (
        f"max deviation {worst:.4f} at H={where:.0f} mm exceeds 0.15; see "
        "reports/fpcf_deviation.csv for the full curve"
    )


def test_c08_end_to_end_round_trip(operating_fit):
    poly = operating_fit.polynomial
    worst = 0.0
    for flow_lps in (2.0, 3.0, 4.0, 5.0, 6.0):
        scenario = ScenarioSpec(
            flow_lps=flow_lps, level_mm=baseline_level_mm(flow_lps), frame_count=2
        )
        frames = generate(scenario, CONFIG.chords, PIPE)
        for frame in run_pipeline(frames, poly):
            assert type(frame) is Frame and frame.status is EstimateStatus.OK
            worst = max(worst, abs(1000.0 * frame.flow_m3s - flow_lps) / flow_lps)
    ok = worst <= 0.005
    report("8 noiseless end-to-end round trip", ok, f"worst rel err={worst:.2e}")
    assert ok


def test_c09_calibration_efficacy(operating_fit):
    poly = operating_fit.polynomial
    bias = 1.05
    trials = []
    for flow_lps in (2.0, 3.0, 4.0, 5.0, 6.0):
        scenario = ScenarioSpec(
            flow_lps=flow_lps, level_mm=baseline_level_mm(flow_lps), frame_count=2
        )
        frames = generate(scenario, CONFIG.chords, PIPE)
        for segment, frame in enumerate(run_pipeline(frames, poly), start=1):
            trials.append(
                TrialRecord(segment, f"{flow_lps:g}", flow_lps,
                            bias * 1000.0 * frame.flow_m3s)
            )
    evaluation = [t for t in trials if t.segment_id > 1]
    pre = error_table(evaluation, k_cal=1.0)
    k_cal = calibration_factor(first_segments(trials))
    post = error_table(evaluation, k_cal=k_cal)
    ok = abs(post.fwme_pct) <= abs(pre.fwme_pct) and abs(post.fwme_pct) <= 0.1
    report("9 calibration efficacy", ok,
           f"pre FWME={pre.fwme_pct:.3f}% post FWME={post.fwme_pct:.5f}% k={k_cal:.6f}")
    assert ok


def test_c10_clogging_detection(operating_fit):
    poly = operating_fit.polynomial
    debounce = 5
    ok = True
    details = []
    for flow_lps in (2.0, 3.0, 4.0, 5.0):
        for weir in (WeirMode.NONE, WeirMode.WEIR1, WeirMode.WEIR2):
            scenario = ScenarioSpec(
                flow_lps=flow_lps,
                level_mm=baseline_level_mm(flow_lps),
                weir=weir,
                frame_count=8,
            )
            frames = generate(scenario, CONFIG.chords, PIPE)
            records = run_pipeline(frames, poly, debounce=debounce)
            assert all(type(record) is Frame for record in records)
            raised = [k for k, record in enumerate(records) if record.event is AlarmEvent.RAISED]
            if weir is WeirMode.NONE:
                ok &= raised == []
            else:
                ok &= raised == [debounce - 1]
            details.append(f"{flow_lps:g}/{weir.value}:{len(raised)}")

    rng = np.random.default_rng(77)
    boundary = DecisionBoundary()
    agree = True
    for _ in range(1000):
        level = float(rng.uniform(0.0, 300.0))
        velocity = float(rng.uniform(-0.5, 1.5))
        independent = velocity < 0.00321 * level - 0.02
        got = classify(level, velocity, boundary) is Verdict.CLOGGING
        agree &= got == independent
    ok &= agree
    report("10 clogging detection", ok,
           f"alarms per stream: {' '.join(details)}; classifier agreement={agree}")
    assert ok


def test_c11_repeatability(operating_fit):
    exact = repeatability([9.0, 10.0, 11.0])
    identical = repeatability([4.0, 4.0, 4.0])

    poly = operating_fit.polynomial
    values = []
    for sigma_ns in (0.0, 1.0, 5.0, 20.0):
        scenario = ScenarioSpec(
            flow_lps=4.0,
            level_mm=baseline_level_mm(4.0),
            noise_sigma_s=sigma_ns * 1e-9,
            seed=2029,
            frame_count=600,
        )
        frames = generate(scenario, CONFIG.chords, PIPE)
        flows = [1000.0 * frame.flow_m3s for frame in run_pipeline(frames, poly)]
        assert len(flows) == 600
        values.append(repeatability(flows))
    monotone = values[0] == 0.0 and all(b > a for a, b in zip(values, values[1:]))
    ok = abs(exact - 10.0) <= 1e-12 and identical == 0.0 and monotone
    report("11 repeatability", ok,
           "R(9,10,11)=%.1f%%; R(sigma)=%s" % (exact, ["%.3f" % v for v in values]))
    assert ok
