"""Clogging classification against a linear velocity-level boundary,
plus the debounced alarm state machine driven by the stream processor.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .errors import OutOfRangeError


@dataclass(frozen=True)
class DecisionBoundary:
    """v_threshold(H) = slope * H + intercept, H in mm, v in m/s.

    Defaults reproduce the boundary calibrated for the reference rig;
    any other installation should re-fit and configure its own.
    """

    slope_mps_per_mm: float = 0.00321
    intercept_mps: float = -0.02

    def __post_init__(self):
        if not self.slope_mps_per_mm > 0:
            raise OutOfRangeError(f"boundary slope must be positive, got {self.slope_mps_per_mm!r}")

    def threshold(self, level_mm: float) -> float:
        return self.slope_mps_per_mm * level_mm + self.intercept_mps


class Verdict(Enum):
    NORMAL = "normal"
    CLOGGING = "clogging"


def classify(
    level_mm: float, velocity_mps: float, boundary: DecisionBoundary = DecisionBoundary()
) -> Verdict:
    """Clogging iff the point falls strictly below the boundary.

    Points exactly on the boundary count as Normal, which avoids alarm
    chatter at the threshold.
    """
    if level_mm < 0:
        raise OutOfRangeError(f"level must be non-negative, got {level_mm!r}")
    if velocity_mps < boundary.threshold(level_mm):
        return Verdict.CLOGGING
    return Verdict.NORMAL


class AlarmStage(Enum):
    NORMAL = "normal"
    SUSPECT = "suspect"
    ALARM = "alarm"


class AlarmEvent(Enum):
    RAISED = "raised"
    CLEARED = "cleared"


@dataclass(frozen=True)
class AlarmState:
    """Debounce counter: ALARM after ``threshold`` consecutive clogging verdicts."""

    stage: AlarmStage = AlarmStage.NORMAL
    count: int = 0
    threshold: int = 5

    def __post_init__(self):
        if self.threshold < 1:
            raise OutOfRangeError(f"debounce threshold must be >= 1, got {self.threshold!r}")


def step_alarm(state: AlarmState, verdict: Verdict) -> tuple[AlarmState, Optional[AlarmEvent]]:
    """Advance the state machine by one verdict (see ``step_alarms``)."""
    state, (event,) = step_alarms(state, [verdict is Verdict.CLOGGING])
    return state, event


def step_alarms(state: AlarmState, clogging: Iterable[bool]) -> tuple[AlarmState, list]:
    """Advance the state machine over verdicts (True for clogging); one event or None each.

    Exactly one RAISED event fires on entering ALARM and exactly one
    CLEARED event on leaving it; a Normal verdict resets the counter.
    """
    count = state.count
    alarm = state.stage is AlarmStage.ALARM
    events = []
    for clog in clogging:
        count = count + 1 if clog else 0
        fire = alarm != (clog and (alarm or count >= state.threshold))
        alarm ^= fire
        events.append((AlarmEvent.RAISED if alarm else AlarmEvent.CLEARED) if fire else None)
    stage = AlarmStage.SUSPECT if count else AlarmStage.NORMAL
    return AlarmState(AlarmStage.ALARM if alarm else stage, count, state.threshold), events
