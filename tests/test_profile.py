import math

import numpy as np
import pytest

from partialflow import (
    DipPositionPoly,
    EntropyParams,
    OutOfRangeError,
    PipeGeometry,
    ProfileModel,
    ProfilePoint,
    WaterLevel,
    normalized_velocity,
    profile_grid,
)
from partialflow.profile import DEFAULT_DIP_POLY, DIP_RATIO_FLOOR, _velocity

PIPE = PipeGeometry(0.250)


def model_at(level_m):
    return ProfileModel(pipe=PIPE, level=WaterLevel(level_m))


def through_bracket(m, point, y_local, f):
    """v/v_max from the CDF value F at a point y' above its local wall."""
    c, p = m.params.tail_weight, m.params
    return 1.0 - 1.0 / p.m + ((y_local / point.y) * (1.0 - c) * f + c) ** (1.0 / p.q) / p.m


def velocity_from_local(m, point, y_local, dip_local):
    """v/v_max by the model's formulas, written out in scalars, at the given y' and h'."""
    d, ratio = m.pipe.diameter_m, m.dip_ratio
    s = math.log(2.0) / math.log(d / dip_local)
    first = 4.0 * ((y_local / d) ** s - (y_local / d) ** (2 * s))
    u = y_local / dip_local - 1.0
    shape = 1.0 - u * u if u <= 0 else max(1.0 - u ** (4 * ratio), 0.0) ** (2 * (1 - ratio))
    lateral = 1.0 - (abs(point.x) / (d / 2)) ** (d / m.level.level_m)
    return through_bracket(m, point, y_local, min(max(first * shape * lateral, 0.0), 1.0))


def vectorized_velocity(m, x, y):
    """v/v_max over coordinate arrays: the model's formulas written out in numpy, with
    masks for the wall and the clamp, as an independent check of ``profile._velocity``."""
    r, d, level, ratio = m.pipe.radius_m, m.pipe.diameter_m, m.level.level_m, m.dip_ratio
    c, p = m.params.tail_weight, m.params
    x, y = np.abs(np.asarray(x, dtype=float)), np.asarray(y, dtype=float)
    wall = r - np.sqrt(np.maximum(r * r - x * x, 0.0))
    core = (y - wall > 0.0) & (level - wall > 0.0)
    v = np.full(x.shape, m.wall_value)
    x, y, wall = x[core], y[core], wall[core]
    y_local, dip_local = y - wall, ratio * (level - wall)
    t_s = np.exp(np.log(2.0) / np.log(d / dip_local) * np.log(y_local / d))
    u = y_local / dip_local - 1.0
    above = np.maximum(1.0 - np.maximum(u, 0.0) ** (4.0 * ratio), 0.0) ** (2.0 * (1.0 - ratio))
    shape = np.where(u <= 0.0, 1.0 - u * u, above)
    lateral = 1.0 - (x / (d / 2)) ** (d / level) if core.any() else 1.0
    f = np.clip(4.0 * (t_s - t_s * t_s) * shape * lateral, 0.0, 1.0)
    v[core] = 1.0 - 1.0 / p.m + (y_local / y * (1.0 - c) * f + c) ** (1.0 / p.q) / p.m
    return v


def point_velocity(m):
    """v(x, y) by the row kernel of ``profile._velocity``, on a row of one node of unit
    weight at x."""
    row, _ = _velocity(m)
    return lambda x, y: row(((1.0, 1.0, 1.0),), y, x)


class TestDipRatio:
    def test_anchor_points(self):
        # empty pipe: maximum at the surface; full pipe: maximum at mid-depth
        assert DEFAULT_DIP_POLY(0.0) == 1.0
        assert DEFAULT_DIP_POLY(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_half_full(self):
        assert DEFAULT_DIP_POLY(0.5) == pytest.approx(0.6975, rel=1e-12)

    def test_sign_variant_cubic(self):
        # the circulating variant with the linear coefficient sign
        # flipped; kept constructible for comparison studies
        variant = DipPositionPoly((1.78, -2.46, -0.18, 1.00))
        assert variant(0.362) == pytest.approx(0.69691127184, rel=1e-12)
        assert variant(0.5) == pytest.approx(0.5175, rel=1e-12)
        assert variant(0.0) == 1.0

    def test_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            DEFAULT_DIP_POLY(-0.1)
        with pytest.raises(OutOfRangeError):
            DEFAULT_DIP_POLY(1.1)

    def test_clamping(self):
        sinks = DipPositionPoly((0.0, 0.0, 0.0, -5.0))
        assert sinks(0.5) == DIP_RATIO_FLOOR
        tops = DipPositionPoly((0.0, 0.0, 0.0, 7.0))
        assert tops(0.5) == 1.0

    @pytest.mark.parametrize("coeffs", [(1.78, -2.46, 0.18, math.nan), (1.8, -2.5, math.inf, 1.0),
                                        (-math.inf, -2.46, 0.18, 1.0), (1.78, -2.46, 0.18)])
    def test_non_finite_or_missing_coefficients_rejected(self, coeffs):
        # a NaN passed the clamp: profile_grid printed nan at every wet point, and fpcf()
        # ran ~3 s of refinement before it raised QuadratureError; three coefficients
        # failed at the first call, with a ValueError from the unpacking
        with pytest.raises(OutOfRangeError, match="dip coefficients must be 4 finite numbers"):
            DipPositionPoly(coeffs)

    def test_decreasing_through_operating_band(self):
        # the cubic decreases until ~0.88 then turns up toward the
        # mid-depth anchor at a full pipe
        sweep = np.arange(0.362, 0.8801, 0.01)
        values = [DEFAULT_DIP_POLY(float(t)) for t in sweep]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert min(DEFAULT_DIP_POLY(float(t)) for t in np.arange(0.88, 1.0001, 0.01)) > 0.46


class TestLocalFrame:
    """The wall-relative frame (y', H', h') that ``normalized_velocity`` evaluates in."""

    def test_centerline_surface(self):
        m = model_at(0.1)
        p = ProfilePoint(0.0, 0.1)
        # y' = H' = 0.1 and h' = dip ratio * 0.1
        assert normalized_velocity(p, m) == pytest.approx(
            velocity_from_local(m, p, 0.1, m.dip_ratio * 0.1), rel=1e-12)

    def test_bottom(self):
        m = model_at(0.1)
        # y' = 0: the F = 0 limit, below zero as the model is designed
        assert normalized_velocity(ProfilePoint(0.0, 0.0), m) == m.wall_value
        assert m.wall_value == pytest.approx(-0.124, abs=5e-4)

    def test_off_center(self):
        m = model_at(0.1)
        p = ProfilePoint(0.1, 0.08)
        # wall offset at |x| = 0.1 is 0.125 - 0.075 = 0.05: y' = 0.03, H' = 0.05
        assert normalized_velocity(p, m) == pytest.approx(
            velocity_from_local(m, p, 0.03, m.dip_ratio * 0.05), rel=1e-12)

    def test_outside_bore_rejected(self):
        with pytest.raises(OutOfRangeError, match="outside the pipe bore"):
            normalized_velocity(ProfilePoint(0.2, 0.05), model_at(0.1))

    @pytest.mark.parametrize("x,y", [(math.nan, 0.05), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_point_rejected(self, x, y):
        # a NaN failed neither comparison, so the point took the wall value, -0.1236
        with pytest.raises(OutOfRangeError, match="outside the pipe bore"):
            normalized_velocity(ProfilePoint(x, y), model_at(0.1))

    def test_above_water_rejected(self):
        with pytest.raises(OutOfRangeError, match="above the water line"):
            normalized_velocity(ProfilePoint(0.0, 0.12), model_at(0.1))


class TestVelocityCdf:
    """The CDF F, seen through the velocity: v = 1 where F = 1 (the dip) and the
    wall value where F = 0 (the wall)."""

    def test_unity_at_dip(self):
        m = model_at(0.125)
        v = normalized_velocity(ProfilePoint(0.0, m.dip_height_m), m)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_wall(self):
        m = model_at(0.125)
        y = 0.05
        w = math.sqrt(0.125**2 - (y - 0.125) ** 2)
        assert [normalized_velocity(ProfilePoint(x, y), m) for x in (w, -w)] == [
            m.wall_value, m.wall_value]

    def test_small_positive_near_wall(self):
        # just inside the wall F is small and positive: v lies just above the wall value
        m = model_at(0.125)
        y = 0.05
        w = math.sqrt(0.125**2 - (y - 0.125) ** 2)
        value = normalized_velocity(ProfilePoint(0.999 * w, y), m)
        assert m.wall_value < value < m.wall_value + 1e-3

    def test_against_straight_line_reimplementation(self):
        # independent scalar evaluation of the same formulas
        level, x, y = 0.125, 0.06, 0.0625
        m = model_at(level)
        r = 0.125
        wall = r - math.sqrt(r * r - x * x)
        y_loc = y - wall
        depth = level - wall
        dip = m.dip_ratio * depth
        assert y_loc <= dip  # the chosen point sits below the local dip
        s = math.log(2.0) / math.log(2 * r / dip)
        first = 4.0 * ((y_loc / (2 * r)) ** s - (y_loc / (2 * r)) ** (2 * s))
        shape = 1.0 - (y_loc / dip - 1.0) ** 2
        lateral = 1.0 - (x / r) ** (0.25 / level)
        expected = through_bracket(m, ProfilePoint(x, y), y_loc, first * shape * lateral)
        assert normalized_velocity(ProfilePoint(x, y), m) == pytest.approx(expected, rel=1e-12)


class TestNormalizedVelocity:
    def test_unity_at_dip(self):
        for level in (0.065, 0.1, 0.125, 0.15, 0.2):
            m = model_at(level)
            v = normalized_velocity(ProfilePoint(0.0, m.dip_height_m), m)
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_wall_value_formula(self):
        m = model_at(0.125)
        p = m.params
        expected = 1.0 - 1.0 / p.m + (1.0 - p.m) ** (1.0 / (p.q - 1.0)) / p.m
        assert expected == pytest.approx(-0.1236, abs=1e-4)
        assert normalized_velocity(ProfilePoint(0.0, 0.0), m) == pytest.approx(expected, rel=1e-12)
        y = 0.05
        w = math.sqrt(0.125**2 - (y - 0.125) ** 2)
        assert normalized_velocity(ProfilePoint(w, y), m) == pytest.approx(expected, rel=1e-12)

    def test_left_right_symmetry_exact(self):
        m = model_at(0.15)
        for x, y in ((0.03, 0.02), (0.08, 0.1), (0.11, 0.125), (0.05, 0.149)):
            assert normalized_velocity(ProfilePoint(x, y), m) == normalized_velocity(
                ProfilePoint(-x, y), m
            )

    def test_continuity_across_dip_boundary(self):
        m = model_at(0.125)
        dip = m.dip_height_m
        for x in (0.0, 0.04, 0.09):
            wall = 0.125 - math.sqrt(0.125**2 - x * x)
            depth = 0.125 - wall
            boundary_y = wall + m.dip_ratio * depth  # y' = h' there
            lo = normalized_velocity(ProfilePoint(x, boundary_y - 1e-9), m)
            hi = normalized_velocity(ProfilePoint(x, boundary_y + 1e-9), m)
            assert abs(hi - lo) < 1e-6
        assert dip < 0.125

    def test_dense_grid_max_at_dip(self):
        m = model_at(0.125)
        grid = profile_grid(m, 201, 201)
        v = np.array(grid.v)
        j, i = np.unravel_index(np.nanargmax(v), v.shape)
        dx = grid.x_m[1] - grid.x_m[0]
        dy = grid.y_m[1] - grid.y_m[0]
        assert abs(grid.x_m[i] - 0.0) <= dx + 1e-15
        assert abs(grid.y_m[j] - m.dip_height_m) <= dy + 1e-15
        assert np.nanmax(v) <= 1.0 + 1e-12
        # refine around the coarse argmax: the true global max is 1
        ys = np.linspace(grid.y_m[j] - dy, min(grid.y_m[j] + dy, 0.125), 401)
        refined = max(
            normalized_velocity(ProfilePoint(0.0, float(y)), m) for y in ys
        )
        assert refined == pytest.approx(1.0, abs=1e-6)


class TestProfileGrid:
    def test_masking_counts(self):
        grid = profile_grid(model_at(0.125), 3, 3)
        assert len(grid.x_m) == len(grid.y_m) == 3 and [len(row) for row in grid.v] == [3] * 3
        assert sum(not math.isnan(v) for row in grid.v for v in row) == 5

    def test_symmetry_in_x(self):
        grid = profile_grid(model_at(0.15), 21, 11)
        assert np.array_equal(grid.v, np.array(grid.v)[:, ::-1], equal_nan=True)

    def test_csv_output(self, tmp_path):
        grid = profile_grid(model_at(0.125), 3, 3)
        out = tmp_path / "grid.csv"
        with out.open("w") as fh:
            grid.write_csv(fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x_mm,y_mm,v_norm"
        assert len(lines) == 10

    def test_too_small_grid_rejected(self):
        with pytest.raises(OutOfRangeError):
            profile_grid(model_at(0.125), 1, 5)

    @pytest.mark.parametrize("level_mm", [5.0, 82.5, 180.0, 250.0])
    def test_grid_points_equal_normalized_velocity_bit_for_bit(self, level_mm):
        # both run the one row kernel, on a row of one node of unit weight: a kernel
        # that treats that row apart from the others would move a grid value
        m = model_at(level_mm / 1000.0)
        grid = profile_grid(m, 101, 101)
        got, want = [], []
        for y, row in zip(grid.y_m, grid.v):
            for x, v in zip(grid.x_m, row):
                if not math.isnan(v):
                    got.append(v.hex())
                    want.append(normalized_velocity(ProfilePoint(x, y), m).hex())
        assert len(got) > 1000 and got == want


class TestParams:
    def test_entropy_bounds(self):
        with pytest.raises(OutOfRangeError):
            EntropyParams(m=1.0)
        with pytest.raises(OutOfRangeError):
            EntropyParams(m=0.0)
        with pytest.raises(OutOfRangeError):
            EntropyParams(q=1.0)

    def test_vectorized_matches_scalar(self):
        m = model_at(0.15)
        pts = [(0.0, 0.01), (0.05, 0.08), (-0.09, 0.12), (0.0, m.dip_height_m)]
        vec = vectorized_velocity(m, [x for x, _ in pts], [y for _, y in pts])
        got = [normalized_velocity(ProfilePoint(x, y), m) for x, y in pts]
        np.testing.assert_allclose(got, vec, rtol=0, atol=1e-14)


class TestPointVelocity:
    """``profile._velocity``, the one formula, in plain floats with ``if`` branches,
    against the same model written out in numpy arrays (``vectorized_velocity``)."""

    @pytest.mark.parametrize("level_mm", [5.0, 50.0, 82.5, 125.0, 180.0, 240.0, 250.0])
    def test_matches_vectorized_on_a_dense_grid(self, level_mm):
        m = model_at(level_mm / 1000.0)
        r, height = m.pipe.radius_m, m.level.level_m
        xs, ys = np.meshgrid(np.linspace(-r, r, 81), np.linspace(0.0, height, 61))
        xs, ys = xs[xs**2 + (ys - r) ** 2 <= r * r], ys[xs**2 + (ys - r) ** 2 <= r * r]
        # the bottom, the wall at every sampled height, the dip and either side of it
        walls = np.sqrt(np.maximum(r * r - (ys - r) ** 2, 0.0))
        dip = m.dip_height_m
        xs = np.concatenate((xs, [0.0, 0.0, 0.0, 0.0], walls, -walls))
        ys = np.concatenate((ys, [0.0, dip, dip * (1 - 1e-9), min(dip * (1 + 1e-9), height)],
                             ys, ys))
        point = point_velocity(m)
        got = np.array([point(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
        np.testing.assert_allclose(got, vectorized_velocity(m, xs, ys), rtol=0, atol=1e-13)
        assert point(0.0, 0.0) == m.wall_value
        assert point(0.0, dip) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("level_mm", [0.0, 5.0, 82.5, 125.0, 240.0, 250.0])
    def test_boundary_points_take_exactly_the_wall_value(self, level_mm):
        # no log or power may meet y' <= 0 there, in an empty pipe neither: each returns
        # the wall value itself
        m = model_at(level_mm / 1000.0)
        r = m.pipe.radius_m
        xs = np.linspace(0.0, r, 17)  # x = 0 is the pipe bottom
        walls = r - np.sqrt(np.maximum(r * r - xs * xs, 0.0))  # the local wall under x
        xs, walls = xs[walls <= m.level.level_m], walls[walls <= m.level.level_m]
        xs, ys = np.concatenate((xs, -xs)), np.concatenate((walls, walls))
        point = point_velocity(m)
        assert [point(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == [m.wall_value] * len(xs)

    def test_clamp_above_the_dip_matches(self):
        # a dip ratio under 1/2 puts the clamp height 2h' below the surface: the base
        # 1 - u^(2L) is clamped at zero above it
        m = model_at(0.240)
        assert 2.0 * m.dip_height_m < m.level.level_m
        ys = np.linspace(2.0 * m.dip_height_m, m.level.level_m, 201)
        xs = np.full_like(ys, 0.01)
        point = point_velocity(m)
        got = np.array([point(x, y) for x, y in zip(xs.tolist(), ys.tolist())])
        np.testing.assert_allclose(got, vectorized_velocity(m, xs, ys), rtol=0, atol=1e-13)
        assert point(0.01, m.level.level_m) == m.wall_value  # clamped: F = 0

    def test_a_dip_ratio_of_one_keeps_the_shape_factor(self):
        # at a dip ratio of 1 the clamped base is raised to the power 0, which is 1: a
        # point a hair above the water line beside the wall meets a clamped base there,
        # and is not the wall value that a clamped base gives below a ratio of 1
        m = model_at(0.010)
        r, level = m.pipe.radius_m, m.level.level_m
        assert m.dip_ratio == 1.0
        xs = math.sqrt(r * r - (r - level) ** 2) + 1e-15 * np.arange(-2000, 2000)
        ys = np.full_like(xs, level * (1.0 + 1e-12))
        walls = r - np.sqrt(r * r - xs * xs)
        u = (ys - walls) / (level - walls) - 1.0
        clamped = (walls < level) & (u > 0.0) & (1.0 - np.maximum(u, 0.0) ** 4.0 <= 0.0)
        xs, ys = xs[clamped], ys[clamped]
        assert len(xs) > 10
        got = [normalized_velocity(ProfilePoint(x, y), m) for x, y in zip(xs.tolist(), ys.tolist())]
        np.testing.assert_allclose(got, vectorized_velocity(m, xs, ys), rtol=0, atol=1e-13)
        assert m.wall_value not in got
