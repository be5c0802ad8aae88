import math

import pytest
from hypothesis import given, strategies as st

from partialflow import (
    OutOfRangeError,
    PipeGeometry,
    WaterLevel,
    chord_half_width,
    reynolds,
    segment_area,
)
from partialflow.geometry import KINEMATIC_VISCOSITY, wetted_angle

PIPE = PipeGeometry(0.250)
FULL_AREA = math.pi * 0.250**2 / 4.0


def test_wetted_angle_landmarks():
    assert wetted_angle(WaterLevel(0.0), PIPE) == 0.0
    assert wetted_angle(WaterLevel(0.125), PIPE) == pytest.approx(math.pi, abs=0.0)
    assert wetted_angle(WaterLevel(0.250), PIPE) == pytest.approx(2.0 * math.pi, abs=0.0)


def test_wetted_angle_monotone():
    levels = [i * 0.250 / 100 for i in range(101)]
    angles = [wetted_angle(WaterLevel(h), PIPE) for h in levels]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_segment_area_landmarks():
    assert segment_area(WaterLevel(0.125), PIPE) == pytest.approx(FULL_AREA / 2, rel=1e-12)
    assert segment_area(WaterLevel(0.250), PIPE) == pytest.approx(FULL_AREA, rel=1e-12)
    # direct evaluation at 65 mm: theta = 2*acos(0.48)
    theta = 2.0 * math.acos(0.48)
    expected = 0.250**2 / 8.0 * (theta - math.sin(theta))
    assert segment_area(WaterLevel(0.065), PIPE) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.010140, abs=2e-6)


def test_level_range_rejected():
    with pytest.raises(OutOfRangeError):
        WaterLevel(-0.001)
    with pytest.raises(OutOfRangeError):
        segment_area(WaterLevel(0.251), PIPE)
    with pytest.raises(OutOfRangeError):
        PipeGeometry(0.0)


@given(st.floats(min_value=0.0, max_value=0.250, allow_nan=False))
def test_complementary_segments(level):
    total = segment_area(WaterLevel(level), PIPE) + segment_area(WaterLevel(0.250 - level), PIPE)
    assert total == pytest.approx(FULL_AREA, rel=1e-12)


def test_area_derivative_is_chord_width():
    eps = 1e-6
    for level in (0.03, 0.065, 0.125, 0.2, 0.24):
        slope = (
            segment_area(WaterLevel(level + eps), PIPE)
            - segment_area(WaterLevel(level - eps), PIPE)
        ) / (2 * eps)
        assert slope == pytest.approx(2.0 * chord_half_width(level, PIPE), rel=1e-6)


def test_chord_half_width():
    assert chord_half_width(0.125, PIPE) == 0.125
    assert chord_half_width(0.0, PIPE) == 0.0
    assert chord_half_width(0.250, PIPE) == 0.0
    assert chord_half_width(0.05, PIPE) == pytest.approx(0.1, rel=1e-14)
    with pytest.raises(OutOfRangeError):
        chord_half_width(-0.01, PIPE)
    with pytest.raises(OutOfRangeError):
        chord_half_width(0.26, PIPE)


def test_reynolds_at_a_full_pipe_is_that_of_the_bore():
    # D_h = 4A/P is the bore D at a full pipe, so Re = (Q/A) D / nu = 4Q / (pi D nu)
    expected = 4.0 * 0.004 / (math.pi * 0.250 * KINEMATIC_VISCOSITY)
    assert reynolds(0.004, WaterLevel(0.250), PIPE) == pytest.approx(expected, rel=1e-12)


def test_reynolds_excludes_the_free_surface():
    # at half pipe the wetted wall is the half circle pi D / 2, without the free surface
    # of width D: D_h = 4 (pi D^2 / 8) / (pi D / 2) = D, and Re = (Q/A) D / nu = 8Q / (pi D nu)
    expected = 8.0 * 0.004 / (math.pi * 0.250 * KINEMATIC_VISCOSITY)
    assert reynolds(0.004, WaterLevel(0.125), PIPE) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("level", [0.0, 1e-300, 6e-18])
def test_reynolds_refuses_a_flow_with_no_wetted_wall(level):
    # the wetted angle is 0 wherever 1 - 2H/D rounds to 1: reynolds divided by it
    assert wetted_angle(WaterLevel(level), PIPE) == 0.0
    with pytest.raises(OutOfRangeError, match=f"^Reynolds number undefined at level {level:g} "
                                              "m: no wetted wall$"):
        reynolds(0.001, WaterLevel(level), PIPE)
    assert reynolds(0.0, WaterLevel(level), PIPE) == 0.0


def test_reynolds_reference_conditions():
    # the 2 and 6 L/s points of the loop, bit for bit as (Q/A) * (4A/P) / nu gave them
    assert reynolds(0.002, WaterLevel(0.065), PIPE) == 29902.58445208801
    assert reynolds(0.006, WaterLevel(0.100), PIPE) == 70101.72898545093
    assert reynolds(0.0, WaterLevel(0.065), PIPE) == 0.0


def test_reynolds_guards():
    with pytest.raises(OutOfRangeError):
        reynolds(-0.001, WaterLevel(0.065), PIPE)


@pytest.mark.parametrize("flow", [math.nan, math.inf])
def test_reynolds_of_a_non_finite_flow_rejected(flow):
    # reynolds(nan, ...) returned nan
    with pytest.raises(OutOfRangeError, match=f"^flow rate must be finite and non-negative, "
                                              f"got {flow!r}$"):
        reynolds(flow, WaterLevel(0.065), PIPE)
