"""Clogging classification against a linear velocity-level boundary,
plus the debounced alarm state machine driven by the stream processor.
"""

import math
from enum import Enum
from typing import Iterable

from ._record import record
from .errors import OutOfRangeError


@record
class DecisionBoundary:
    """v_threshold(H) = slope * H + intercept, H in mm, v in m/s.

    Defaults reproduce the boundary calibrated for the reference rig;
    any other installation should re-fit and configure its own.
    """

    slope_mps_per_mm: float = 0.00321
    intercept_mps: float = -0.02

    def __post_init__(self):
        if not 0 < self.slope_mps_per_mm < math.inf:
            raise OutOfRangeError(
                f"boundary slope must be finite and positive, got {self.slope_mps_per_mm!r}")
        if not math.isfinite(self.intercept_mps):
            raise OutOfRangeError(f"boundary intercept must be finite, got {self.intercept_mps!r}")

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


@record
class AlarmState:
    """Debounce counter: ALARM after ``threshold`` consecutive clogging verdicts."""

    threshold: int
    stage: AlarmStage = AlarmStage.NORMAL
    count: int = 0

    def __post_init__(self):
        if self.threshold < 1:
            raise OutOfRangeError(f"debounce threshold must be >= 1, got {self.threshold!r}")


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
    return AlarmState(state.threshold, AlarmStage.ALARM if alarm else stage, count), events
