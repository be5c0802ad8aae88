import importlib
import io
import math
import random

import numpy as np
import pytest

from partialflow import (
    ChordSpec,
    DecisionBoundary,
    OutOfRangeError,
    PipeGeometry,
    ScenarioSpec,
    WeirMode,
    baseline_level_mm,
    chord_velocity_from_truth,
    classify,
    generate,
    line_velocity,
    transit_times,
    weir_shift,
    write_frame_rows,
    Verdict,
)

from conftest import process_frames

PIPE = PipeGeometry(0.250)
ANGLE = math.radians(45.0)
CHORD = ChordSpec("a", 50.0, 0.2 / math.sin(ANGLE), ANGLE)


class TestTransitTimes:
    def test_still_water(self):
        t_up, t_down = transit_times(0.0, CHORD, 1480.0)
        assert t_up == t_down == CHORD.path_length_m / 1480.0

    def test_with_flow_pulse_is_faster(self):
        t_up, t_down = transit_times(0.3, CHORD, 1480.0)
        assert t_up < t_down

    def test_round_trip(self):
        chord = ChordSpec("x", 50.0, 0.3, ANGLE)
        t_up, t_down = transit_times(0.2, chord, 1480.0)
        assert line_velocity(t_up, t_down, chord) == pytest.approx(0.2, rel=1e-9)

    def test_sonic_violation(self):
        with pytest.raises(OutOfRangeError):
            transit_times(3000.0, CHORD, 1480.0)


class TestChordVelocityFromTruth:
    def test_zero_flow(self):
        assert chord_velocity_from_truth(0.0, 85.0, CHORD, PIPE) == 0.0

    def test_linearity(self):
        v1 = chord_velocity_from_truth(0.002, 85.0, CHORD, PIPE)
        v2 = chord_velocity_from_truth(0.004, 85.0, CHORD, PIPE)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_dry_chord_rejected(self):
        with pytest.raises(OutOfRangeError):
            chord_velocity_from_truth(0.002, 40.0, CHORD, PIPE)


class TestWeirShift:
    def test_none_is_identity(self):
        assert weir_shift(85.0, WeirMode.NONE, PIPE) == 85.0

    def test_uplift_factors(self):
        assert weir_shift(100.0, WeirMode.WEIR1, PIPE) == pytest.approx(135.0)
        assert weir_shift(100.0, WeirMode.WEIR2, PIPE) == pytest.approx(180.0)

    def test_overflow_rejected(self):
        with pytest.raises(OutOfRangeError):
            weir_shift(200.0, WeirMode.WEIR2, PIPE)


class TestWeirSeparation:
    @pytest.mark.parametrize("flow_lps", [2.0, 3.0, 4.0, 5.0])
    def test_opposite_sides_of_boundary(self, flow_lps):
        boundary = DecisionBoundary()
        level = baseline_level_mm(flow_lps)
        v_base = chord_velocity_from_truth(flow_lps / 1000.0, level, CHORD, PIPE)
        assert classify(level, v_base, boundary) is Verdict.NORMAL
        shifted = weir_shift(level, WeirMode.WEIR1, PIPE)
        v_weir = chord_velocity_from_truth(flow_lps / 1000.0, shifted, CHORD, PIPE)
        assert classify(shifted, v_weir, boundary) is Verdict.CLOGGING


class TestGenerate:
    def scenario(self, **kwargs):
        defaults = dict(flow_lps=4.0, level_mm=82.5, frame_count=4)
        defaults.update(kwargs)
        return ScenarioSpec(**defaults)

    def test_noiseless_frames_identical(self):
        frames = generate(self.scenario(), [CHORD], PIPE)
        assert len(frames) == 4
        assert len({f.readings for f in frames}) == 1

    def test_seed_determinism(self):
        a = generate(self.scenario(noise_sigma_s=2e-9, seed=42), [CHORD], PIPE)
        b = generate(self.scenario(noise_sigma_s=2e-9, seed=42), [CHORD], PIPE)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_frame_rows(a, buf_a)
        write_frame_rows(b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_different_seeds_differ(self):
        a = generate(self.scenario(noise_sigma_s=2e-9, seed=1), [CHORD], PIPE)
        b = generate(self.scenario(noise_sigma_s=2e-9, seed=2), [CHORD], PIPE)
        assert a != b

    def test_noise_perturbs_frames(self):
        frames = generate(self.scenario(noise_sigma_s=2e-9, seed=3), [CHORD], PIPE)
        assert len({f.readings for f in frames}) == 4

    def test_noisy_frames_match_per_frame_draws(self):
        """The jitter is the standard library's seeded gauss, two draws per (frame, chord)
        in order: t_up before t_down."""
        chords = [CHORD, ChordSpec("b", 50.0, 0.25, ANGLE)]
        scenario = self.scenario(noise_sigma_s=2e-9, seed=123, frame_count=7)
        base = [transit_times(chord_velocity_from_truth(0.004, 82.5, c, PIPE), c, 1480.0)
                for c in chords]
        rng = random.Random(123)
        expected = []
        for _ in range(7):
            for chord, (t_up, t_down) in zip(chords, base):
                up, down = rng.gauss(0.0, 2e-9), rng.gauss(0.0, 2e-9)
                expected.append((chord.chord_id, t_up + up, t_down + down))
        frames = generate(scenario, chords, PIPE)
        assert [(r.chord_id, r.t_up_s, r.t_down_s) for f in frames for r in f.readings] == expected

    def test_jitter_is_unbiased_at_its_sigma(self):
        """20,000 draws at 2 ns: mean within 4 standard errors of 0, sample sigma within
        2% of 2 ns, and up and down jitter drawn apart, not one value twice."""
        sigma = 2e-9
        frames = generate(self.scenario(noise_sigma_s=sigma, seed=5, frame_count=10_000),
                          [CHORD], PIPE)
        base_up, base_down = transit_times(chord_velocity_from_truth(0.004, 82.5, CHORD, PIPE),
                                           CHORD, 1480.0)
        up = np.array([f.readings[0].t_up_s for f in frames]) - base_up
        down = np.array([f.readings[0].t_down_s for f in frames]) - base_down
        jitter = np.concatenate((up, down))
        assert jitter.size == 20_000
        assert abs(jitter.mean()) < 4.0 * sigma / math.sqrt(jitter.size)
        assert abs(jitter.std(ddof=1) / sigma - 1.0) < 0.02
        assert not np.array_equal(up, down)
        assert abs(np.corrcoef(up, down)[0, 1]) < 4.0 / math.sqrt(up.size)

    def test_one_fpcf_per_distinct_chord_height(self, monkeypatch):
        """Chords that share a height share one FPCF quadrature, in first-seen order,
        and get the transit times of a per-chord computation."""
        chords = [CHORD, ChordSpec("b", 30.0, 0.25, ANGLE), ChordSpec("c", 50.0, 0.3, ANGLE)]
        expected = [(c.chord_id, *transit_times(chord_velocity_from_truth(0.004, 82.5, c, PIPE),
                                                c, 1480.0)) for c in chords]
        simulator = importlib.import_module("partialflow.simulator")
        heights, real = [], simulator.fpcf

        def counting(model, chord_height_m, quad):
            heights.append(chord_height_m)
            return real(model, chord_height_m, quad)

        monkeypatch.setattr(simulator, "fpcf", counting)
        frames = generate(self.scenario(), chords, PIPE)
        assert heights == [0.05, 0.03]
        assert [(r.chord_id, r.t_up_s, r.t_down_s) for r in frames[0].readings] == expected

    def test_timestamps_and_level(self):
        frames = generate(self.scenario(frame_interval_s=0.5), [CHORD], PIPE)
        assert [f.timestamp_s for f in frames] == [0.0, 0.5, 1.0, 1.5]
        assert all(f.level_mm == 82.5 for f in frames)

    def test_weir_scenario_raises_level(self):
        frames = generate(self.scenario(weir=WeirMode.WEIR1), [CHORD], PIPE)
        assert all(f.level_mm == pytest.approx(82.5 * 1.35) for f in frames)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["flow_lps", "noise_sigma_s", "frame_interval_s", "level_mm"])
    def test_non_finite_scenario_rejected(self, field, value):
        # nan passed the sign checks: nan transit times, noise-free frames, nan timestamps
        with pytest.raises(OutOfRangeError, match="must be finite"):
            ScenarioSpec(**{"flow_lps": 4.0, "level_mm": 85.0, field: value})

    def test_scenario_validation(self):
        with pytest.raises(OutOfRangeError):
            ScenarioSpec(flow_lps=4.0, level_mm=85.0, frame_count=0)
        with pytest.raises(OutOfRangeError):
            ScenarioSpec(flow_lps=4.0, level_mm=85.0, noise_sigma_s=-1.0)
        with pytest.raises(OutOfRangeError):
            ScenarioSpec(flow_lps=-1.0, level_mm=85.0)


def test_baseline_levels():
    assert baseline_level_mm(2.0) == 65.0
    assert baseline_level_mm(6.0) == 100.0
    assert baseline_level_mm(4.0) == pytest.approx(82.5)


def test_round_trip_through_estimator():
    # 4 L/s at 85 mm, noiseless: with the quadrature correction factor at
    # the same level the estimator recovers the truth to round-trip
    # precision (tested against a constant polynomial carrying it)
    from partialflow import FpcfPolynomial
    from partialflow.fpcf import fpcf as fpcf_quad
    from partialflow.profile import ProfileModel
    from partialflow.geometry import WaterLevel

    scenario = ScenarioSpec(flow_lps=4.0, level_mm=85.0, frame_count=1)
    frames = generate(scenario, [CHORD], PIPE)
    model = ProfileModel(pipe=PIPE, level=WaterLevel(0.085))
    correction = fpcf_quad(model, CHORD.height_mm / 1000.0)
    poly = FpcfPolynomial((correction, 0, 0, 0, 0, 0, 0), 50.0, 250.0)
    (frame,) = process_frames(frames[:1], [CHORD], PIPE, poly=poly)
    assert 1000.0 * frame.flow_m3s == pytest.approx(4.0, rel=1e-9)


def test_tuned_noise_repeatability_under_one_percent():
    # transit-time differences are tens of nanoseconds at these flows, so
    # sub-percent repeatability needs sub-nanosecond effective jitter
    # (averaged timing electronics); 0.5 ns lands near the rig's figures
    from partialflow import FpcfPolynomial, repeatability

    scenario = ScenarioSpec(
        flow_lps=2.0, level_mm=65.0, noise_sigma_s=0.5e-9, seed=5, frame_count=600
    )
    chords = [CHORD, ChordSpec("b", 50.0, CHORD.path_length_m, ANGLE)]
    frames = generate(scenario, chords, PIPE)
    poly = FpcfPolynomial((1.0, 0, 0, 0, 0, 0, 0), 50.0, 250.0)
    flows = [1000.0 * frame.flow_m3s
             for frame in process_frames(frames, chords, PIPE, poly=poly)]
    assert len(flows) == 600 and repeatability(flows) < 1.0
