"""Clogging classification against a linear velocity-level boundary,
plus the debounced alarm state machine driven by the stream processor.
"""

import math
from enum import Enum

from .config import DecisionBoundary
from .errors import OutOfRangeError


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
    if not 0 <= level_mm < math.inf:
        raise OutOfRangeError(f"level must be finite and non-negative, got {level_mm!r}")
    if not math.isfinite(velocity_mps):
        raise OutOfRangeError(f"velocity must be finite, got {velocity_mps!r}")
    if velocity_mps < boundary.threshold(level_mm):
        return Verdict.CLOGGING
    return Verdict.NORMAL


class AlarmEvent(Enum):
    RAISED = "raised"
    CLEARED = "cleared"


class Debounce:
    """The alarm state machine, stepped in place: ``alarm`` rises after ``threshold``
    consecutive clogging verdicts, and ``count`` is the current run of them. ``step``
    gives the event that one more verdict (True for clogging) fires, or None. Exactly one
    RAISED event fires on entering the alarm and exactly one CLEARED event on leaving
    it; a Normal verdict resets the counter."""

    def __init__(self, threshold: int, alarm: bool = False, count: int = 0):
        if threshold < 1:
            raise OutOfRangeError(f"debounce threshold must be >= 1, got {threshold!r}")
        self.threshold, self.alarm, self.count = threshold, alarm, count

    def step(self, clog: bool) -> AlarmEvent | None:
        self.count = count = self.count + 1 if clog else 0
        if self.alarm == (clog and (self.alarm or count >= self.threshold)):
            return None
        self.alarm = alarm = not self.alarm
        return AlarmEvent.RAISED if alarm else AlarmEvent.CLEARED
