import pytest
from hypothesis import given, strategies as st

from partialflow import (
    AlarmEvent,
    AlarmState,
    DecisionBoundary,
    OutOfRangeError,
    Verdict,
    classify,
)
from partialflow.clogging import step_alarms

BOUNDARY = DecisionBoundary()


class TestClassify:
    def test_above_boundary(self):
        # threshold at H=100 is 0.301
        assert classify(100.0, 0.32, BOUNDARY) is Verdict.NORMAL

    def test_below_boundary(self):
        assert classify(100.0, 0.25, BOUNDARY) is Verdict.CLOGGING

    def test_tie_is_normal(self):
        v_tie = BOUNDARY.threshold(100.0)
        assert v_tie == pytest.approx(0.301, abs=1e-12)
        assert classify(100.0, v_tie, BOUNDARY) is Verdict.NORMAL

    def test_negative_level_rejected(self):
        with pytest.raises(OutOfRangeError):
            classify(-1.0, 0.3, BOUNDARY)

    def test_low_level_boundary_is_negative(self):
        # below ~6.2 mm the threshold is negative: nothing classifies as
        # clogging near an empty pipe
        assert classify(0.0, 0.0, BOUNDARY) is Verdict.NORMAL

    @given(
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=0.0, max_value=0.3),
    )
    def test_monotone_in_velocity(self, level, velocity, drop):
        if classify(level, velocity, BOUNDARY) is Verdict.CLOGGING:
            assert classify(level, velocity - drop, BOUNDARY) is Verdict.CLOGGING

    @given(
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=-0.5, max_value=1.5),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_monotone_in_level(self, level, velocity, rise):
        if classify(level, velocity, BOUNDARY) is Verdict.CLOGGING:
            assert classify(level + rise, velocity, BOUNDARY) is Verdict.CLOGGING

    def test_slope_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            DecisionBoundary(slope_mps_per_mm=0.0)


def run_verdicts(verdicts, threshold):
    state, events = step_alarms(AlarmState(threshold=threshold), [v is C for v in verdicts])
    return state, [(k, event) for k, event in enumerate(events) if event is not None]


C = Verdict.CLOGGING
N = Verdict.NORMAL


class TestAlarm:
    def test_debounce_trace(self):
        _, events = run_verdicts([C, C, N, C, C, C], threshold=3)
        assert events == [(5, AlarmEvent.RAISED)]

    def test_all_normal_never_fires(self):
        _, events = run_verdicts([N] * 20, threshold=3)
        assert events == []

    def test_threshold_one_fires_immediately(self):
        _, events = run_verdicts([C], threshold=1)
        assert events == [(0, AlarmEvent.RAISED)]

    def test_clear_event_on_recovery(self):
        _, events = run_verdicts([C, C, C, N], threshold=3)
        assert events == [(2, AlarmEvent.RAISED), (3, AlarmEvent.CLEARED)]

    def test_stages(self):
        state = AlarmState(threshold=3)
        state, _ = step_alarms(state, [True])
        assert (state.alarm, state.count) == (False, 1)
        state, _ = step_alarms(state, [False])
        assert (state.alarm, state.count) == (False, 0)
        state, _ = step_alarms(state, [True] * 3)
        assert (state.alarm, state.count) == (True, 3)
        state, _ = step_alarms(state, [False])
        assert (state.alarm, state.count) == (False, 0)

    def test_no_repeat_raise_while_alarmed(self):
        _, events = run_verdicts([C] * 10, threshold=2)
        assert events == [(1, AlarmEvent.RAISED)]

    def test_threshold_validation(self):
        with pytest.raises(OutOfRangeError):
            AlarmState(threshold=0)

    @given(st.lists(st.booleans(), max_size=60))
    def test_events_strictly_alternate(self, flags):
        verdicts = [C if f else N for f in flags]
        _, events = run_verdicts(verdicts, threshold=3)
        kinds = [e for _, e in events]
        for first, second in zip(kinds, kinds[1:]):
            assert first != second
        if kinds:
            assert kinds[0] is AlarmEvent.RAISED
