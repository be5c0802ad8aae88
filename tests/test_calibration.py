import io
import math

import pytest
from hypothesis import given, strategies as st

from partialflow import (
    OutOfRangeError,
    TrialRecord,
    calibration_factor,
    error_table,
    fwme,
    percent_error,
    repeatability,
)
from partialflow.calibration import (
    error_table_csv,
    first_segments,
    format_error_table,
    read_trials,
)

# rig acceptance data: per-rate percent errors before/after profile
# correction and calibration, plus the two obstructed-outlet columns
ERRORS_BASELINE_RAW = [(2.0, 8.51), (3.0, 2.62), (4.0, 1.46), (5.0, 0.42), (6.0, 0.23)]
ERRORS_BASELINE_CORRECTED = [(2.0, 3.57), (3.0, -0.42), (4.0, -0.44), (5.0, -0.60), (6.0, 0.07)]
ERRORS_OBSTRUCTION_1 = [(2.0, 3.31), (3.0, 7.61), (4.0, 7.15), (5.0, 4.95)]
ERRORS_OBSTRUCTION_2 = [(2.0, -2.57), (3.0, 0.33), (4.0, -0.81), (5.0, -1.85)]


class TestPercentError:
    def test_zero(self):
        assert percent_error(4.0, 4.0) == 0.0

    def test_known_value(self):
        assert percent_error(2.1702, 2.0) == pytest.approx(8.51, abs=1e-12)

    def test_sign_convention(self):
        assert percent_error(3.0, 4.0) == -25.0

    def test_bad_reference(self):
        with pytest.raises(OutOfRangeError):
            percent_error(1.0, 0.0)

    @pytest.mark.parametrize("q_meas,q_ref,message", [
        (math.nan, 2.0, "measured flow must be finite, got nan"),
        (math.inf, 2.0, "measured flow must be finite, got inf"),
        (1.0, math.inf, "reference flow must be positive and finite, got inf"),
    ], ids=["meas_nan", "meas_inf", "ref_inf"])
    def test_non_finite_flow_rejected(self, q_meas, q_ref, message):
        # percent_error(nan, 2.0) returned nan
        with pytest.raises(OutOfRangeError, match=f"^{message}$"):
            percent_error(q_meas, q_ref)


class TestFwme:
    def test_reference_tables(self):
        assert fwme(ERRORS_BASELINE_RAW) == pytest.approx(1.71, abs=0.005)
        assert fwme(ERRORS_BASELINE_CORRECTED) == pytest.approx(0.08, abs=0.005)
        assert fwme(ERRORS_OBSTRUCTION_1) == pytest.approx(5.91, abs=0.005)
        assert fwme(ERRORS_OBSTRUCTION_2) == pytest.approx(-1.19, abs=0.005)

    def test_single_entry(self):
        assert fwme([(3.0, 4.2)]) == 4.2

    def test_equal_flows_arithmetic_mean(self):
        assert fwme([(2.0, 1.0), (2.0, 2.0), (2.0, 6.0)]) == pytest.approx(3.0, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_rescaling_invariance(self, scale):
        base = fwme(ERRORS_BASELINE_RAW)
        scaled = fwme([(scale * q, e) for q, e in ERRORS_BASELINE_RAW])
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError):
            fwme([])

    @pytest.mark.parametrize("pairs", [[(0.0, 1.0)], [(2.0, 1.0), (-1.0, 2.0)],
                                       [(-2.0, 1.0), (-1.0, 2.0)], [(2.0, 1.0), (math.nan, 2.0)]],
                             ids=["zero", "one_negative", "all_negative", "nan"])
    def test_non_positive_flow_rejected(self, pairs):
        with pytest.raises(OutOfRangeError, match="reference flow must be positive"):
            fwme(pairs)

    @pytest.mark.parametrize("pairs,message", [
        ([(math.inf, 1.0)], "reference flow must be positive and finite, got inf"),
        ([(2.0, 1.0), (3.0, math.nan)], "error must be finite, got nan"),
    ], ids=["flow_inf", "error_nan"])
    def test_non_finite_pair_rejected(self, pairs, message):
        # fwme([(inf, 1.0)]) returned nan
        with pytest.raises(OutOfRangeError, match=f"^{message}$"):
            fwme(pairs)


def trial(seg, label, ref, meas):
    return TrialRecord(seg, label, ref, meas)


class TestCalibrationFactor:
    def test_identity(self):
        trials = [trial(1, "2", 2.0, 2.0), trial(1, "4", 4.0, 4.0)]
        assert calibration_factor(trials) == 1.0

    def test_uniform_bias(self):
        trials = [trial(1, "2", 2.0, 2.2), trial(1, "4", 4.0, 4.4)]
        assert calibration_factor(trials) == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_idempotence(self):
        trials = [trial(1, "2", 2.0, 2.14), trial(1, "3", 3.0, 3.09), trial(1, "5", 5.0, 4.9)]
        k = calibration_factor(trials)
        recalibrated = [trial(t.segment_id, t.flow_label, t.q_ref_lps, k * t.q_meas_lps)
                        for t in trials]
        assert calibration_factor(recalibrated) == pytest.approx(1.0, abs=1e-12)

    def test_zeroes_mean_multiplicative_bias(self):
        trials = [trial(1, "2", 2.0, 2.3), trial(1, "4", 4.0, 4.1)]
        k = calibration_factor(trials)
        ratios = [t.q_ref_lps / (k * t.q_meas_lps) for t in trials]
        assert sum(ratios) / len(ratios) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_measurement_rejected(self):
        with pytest.raises(OutOfRangeError):
            calibration_factor([trial(1, "2", 2.0, 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError):
            calibration_factor([])


class TestRepeatability:
    def test_known_value(self):
        assert repeatability([9.0, 10.0, 11.0]) == pytest.approx(10.0, abs=1e-12)

    def test_identical_samples(self):
        assert repeatability([4.2, 4.2, 4.2, 4.2]) == 0.0

    @given(st.floats(min_value=0.01, max_value=1000.0))
    def test_scale_invariance(self, scale):
        base = repeatability([9.0, 10.0, 11.0])
        scaled = repeatability([scale * 9.0, scale * 10.0, scale * 11.0])
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_guards(self):
        with pytest.raises(OutOfRangeError):
            repeatability([1.0])
        with pytest.raises(OutOfRangeError):
            repeatability([1.0, -1.0])


TRIAL_TEXT = """segment_id,flow_label,q_ref_lps,q_meas_lps
1,2,2.0,2.1
2,2,2.0,2.08
# a comment line is skipped
1,4,4.0,4.05
2,4,4.0,4.06
"""


class TestErrorTable:
    def test_grouping_and_fwme(self):
        trials = list(read_trials(io.StringIO(TRIAL_TEXT)))
        table = error_table(trials, k_cal=1.0)
        assert [r.flow_label for r in table.rows] == ["2", "4"]
        assert table.rows[0].error_pct == pytest.approx(4.5, rel=1e-9)
        assert table.rows[1].error_pct == pytest.approx(1.375, rel=1e-9)
        expected = fwme([(2.0, 4.5), (4.0, 1.375)])
        assert table.fwme_pct == pytest.approx(expected, rel=1e-12)
        assert table.max_abs_error_pct == pytest.approx(4.5, rel=1e-9)

    def test_k_cal_applied(self):
        trials = list(read_trials(io.StringIO(TRIAL_TEXT)))
        table = error_table(trials, k_cal=2.0)
        assert table.rows[0].error_pct == pytest.approx(109.0, rel=1e-9)

    @pytest.mark.parametrize("k_cal", [0.0, -1.0, math.nan, math.inf])
    def test_k_cal_not_finite_and_positive_rejected(self, k_cal):
        # nan gave a table of nan rows, 0 one of -100% rows
        trials = list(read_trials(io.StringIO(TRIAL_TEXT)))
        with pytest.raises(OutOfRangeError, match="k_cal must be finite and positive"):
            error_table(trials, k_cal=k_cal)

    def test_no_trial_rejected(self):
        with pytest.raises(OutOfRangeError, match="error table needs at least one trial"):
            error_table([], k_cal=1.0)

    def test_first_segments(self):
        trials = list(read_trials(io.StringIO(TRIAL_TEXT)))
        firsts = first_segments(trials)
        assert [(t.segment_id, t.flow_label) for t in firsts] == [(1, "2"), (1, "4")]

    def test_formatting(self):
        trials = list(read_trials(io.StringIO(TRIAL_TEXT)))
        table = error_table(trials, k_cal=1.0)
        text = format_error_table(table)
        assert "FWME" in text and "max|E|" in text
        csv = error_table_csv(table)
        assert csv.startswith("flow_label,q_ref_lps,error_pct\n")
        assert csv.strip().endswith(repr(table.fwme_pct))

    def test_bad_csv_rejected(self):
        with pytest.raises(OutOfRangeError):
            list(read_trials(io.StringIO("1,2,3\n")))

    @pytest.mark.parametrize("row", ["1_0,2,2.0,2.1", "2,2,2_0,2.1", "2,2,2.0,2_1"],
                             ids=["segment", "q_ref", "q_meas"])
    def test_digit_separator_rejected(self, row):
        # int() and float() take digit separators: 1_0 was segment 10 and 2_0 a 20 L/s flow
        with pytest.raises(OutOfRangeError, match=r"^trial CSV line 2: digit separator in '\d_\d'$"):
            list(read_trials(io.StringIO(f"1,2,2.0,2.0\n{row}\n")))

    def test_underscore_in_a_flow_label_is_text(self):
        (trial,) = read_trials(io.StringIO("1,flow_2,2.0,2.1\n"))
        assert trial.flow_label == "flow_2"

    @pytest.mark.parametrize("label", ["", " ", "\t"])
    def test_empty_flow_label_rejected(self, label):
        # a blank label was read, and metrics printed a row without one
        message = "^trial CSV line 2: flow_label must not be empty$"
        with pytest.raises(OutOfRangeError, match=message):
            list(read_trials(io.StringIO(f"1,2,2.0,2.0\n1,{label},2.0,2.1\n")))
