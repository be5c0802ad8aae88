import math

import numpy as np
import pytest

from partialflow import (
    DegenerateProfileError,
    DryPathError,
    EntropyParams,
    FpcfPolynomial,
    OutOfRangeError,
    PartialFlowError,
    PipeGeometry,
    ProfileModel,
    QuadratureError,
    QuadratureSpec,
    RunConfig,
    WaterLevel,
    chord_half_width,
    fit_polynomial,
    fpcf,
    mean_area_velocity,
    mean_chord_velocity,
    normalized_velocity,
    tabulate_fpcf,
)
import importlib

fpcf_module = importlib.import_module("partialflow.fpcf")

from partialflow.config import default_config
from partialflow.fpcf import point_fpcf
from partialflow.measurement import STATUSES, process_lines
from partialflow.profile import ProfilePoint
from partialflow.quadrature import DEFAULT_QUADRATURE, point_integrate, unit_integrate

from conftest import RIG_REFERENCE_FPCF_COEFFS

PIPE = PipeGeometry(0.250)


def model_at(level_m):
    return ProfileModel(pipe=PIPE, level=WaterLevel(level_m))


@pytest.fixture
def constant_profile(monkeypatch):
    """Inject v/v_max = 1 everywhere; integral means must come out 1."""

    def ones(model, x, y, validate=False):
        return np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))[0] * 0.0 + 1.0

    monkeypatch.setattr(fpcf_module, "evaluate_velocity", ones)
    monkeypatch.setattr(fpcf_module, "point_velocity", lambda model: lambda x, y: 1.0)


def point_rule(model):
    return math, fpcf_module.point_velocity(model), point_integrate


# (area mean, chord mean, FPCF) by each rule: the point rule runs the same definition
# of each mean as the array rule's public functions, on plain floats.
RULES = {
    "array": (mean_area_velocity, mean_chord_velocity, fpcf),
    "point": (lambda m: fpcf_module._area_mean(m, DEFAULT_QUADRATURE, *point_rule(m)),
              lambda m, h: fpcf_module._chord_mean(m, h, DEFAULT_QUADRATURE, *point_rule(m)),
              point_fpcf),
}


class TestMeans:
    @pytest.mark.parametrize("rule", RULES)
    def test_constant_profile_area_mean(self, constant_profile, rule):
        area_mean, _, _ = RULES[rule]
        assert area_mean(model_at(0.125)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("rule", RULES)
    def test_constant_profile_chord_mean(self, constant_profile, rule):
        _, chord_mean, _ = RULES[rule]
        assert chord_mean(model_at(0.125), 0.050) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("rule", RULES)
    def test_constant_profile_fpcf(self, constant_profile, rule):
        _, _, factor = RULES[rule]
        assert factor(model_at(0.125), 0.050) == pytest.approx(1.0, rel=1e-9)

    def test_area_mean_regression(self):
        # frozen from a converged run; guards against silent model drift
        assert mean_area_velocity(model_at(0.125)) == pytest.approx(0.4168326, abs=2e-5)

    def test_chord_mean_regression(self):
        value = mean_chord_velocity(model_at(0.125), 0.050)
        assert value == pytest.approx(0.3720830, abs=2e-5)
        assert 0.0 < value < 1.0
        near_wall = normalized_velocity(ProfilePoint(0.0999, 0.050), model_at(0.125))
        assert value > near_wall

    def test_chord_at_surface_is_evaluable(self):
        value = mean_chord_velocity(model_at(0.050), 0.050)
        assert np.isfinite(value)

    def test_dry_chord_rejected(self):
        with pytest.raises(DryPathError):
            mean_chord_velocity(model_at(0.049), 0.050)

    def test_half_span_doubling_matches_full_span(self):
        # even integrand: the full chord split at x = 0 and the half chord
        # get mirrored meshes at every doubling and agree to roundoff
        from partialflow.profile import evaluate_velocity

        m = model_at(0.125)
        w = chord_half_width(0.050, PIPE)
        full, _ = unit_integrate(lambda s: 2 * w * evaluate_velocity(m, w * (2 * s - 1), 0.050),
                                 ((0.5,),))
        half, _ = unit_integrate(lambda s: w * evaluate_velocity(m, w * s, 0.050))
        assert full == pytest.approx(2.0 * half, rel=1e-12)

    def test_mesh_halving_converged(self):
        # the doubling loop stops within its tolerance of a 1000x tighter run
        coarse = fpcf(model_at(0.125), 0.050)
        fine = fpcf(model_at(0.125), 0.050, QuadratureSpec(rel_tol=1e-9))
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_fpcf_regression(self):
        assert fpcf(model_at(0.125), 0.050) == pytest.approx(1.1202676, abs=2e-5)

    @pytest.mark.parametrize("level_mm, tight", [
        (50.0, 0.6689416936517993),
        (100.0, 0.9659542389568448),
        (125.0, 1.1202676323024736),
        (150.0, 1.181061388914025),
        (200.0, 0.9948974317563355),
        (215.0, 1.0348250308549256),
        (225.0, 1.1468877834906441),
        (240.0, 1.581608339974163),
        (250.0, 2.329802301472639),
    ])
    def test_fpcf_matches_tight_reference(self, level_mm, tight):
        # values computed at rel_tol=1e-9; convergence is hardest above 200 mm
        assert fpcf(model_at(level_mm / 1000.0), 0.050) == pytest.approx(tight, rel=2e-6)

    @pytest.mark.parametrize("area_mean", [0.0, -1.0, float("inf"), float("nan")],
                             ids=["zero", "negative", "inf", "nan"])
    def test_degenerate_ratio_rejected(self, monkeypatch, area_mean):
        # fpcf() returns only a finite positive factor: simulate divided by -5.48
        # with entropy.m = 0.3, and only the table record checked the sign
        monkeypatch.setattr(fpcf_module, "mean_area_velocity", lambda model, quad: area_mean)
        with pytest.raises(DegenerateProfileError, match=r"^FPCF undefined at Y=0\.05 m, "
                           r"H=0\.125 m: area mean \S+ over chord mean 0\.372\d* is not finite"):
            fpcf(model_at(0.125), 0.050)

    @pytest.mark.parametrize("chord_mean", [0.0, -0.5, float("nan")], ids=["zero", "negative", "nan"])
    def test_non_positive_chord_mean_rejected(self, monkeypatch, chord_mean):
        # a negative area mean over a negative chord mean is no factor either
        monkeypatch.setattr(fpcf_module, "mean_area_velocity", lambda model, quad: -0.4)
        monkeypatch.setattr(fpcf_module, "mean_chord_velocity", lambda *args: chord_mean)
        with pytest.raises(DegenerateProfileError, match="is not finite and positive"):
            fpcf(model_at(0.125), 0.050)

    def test_area_mean_non_convergence_raises(self):
        with pytest.raises(QuadratureError) as excinfo:
            mean_area_velocity(model_at(0.215), QuadratureSpec(rel_tol=1e-15, max_depth=1))
        assert excinfo.value.max_depth == 1
        assert excinfo.value.error_bound > 0


class TestPointRule:
    """``point_fpcf``, the simulator's numpy-free factor, against ``fpcf``."""

    @pytest.mark.parametrize("chord_mm", [30.0, 50.0])
    def test_matches_the_array_rule(self, chord_mm):
        checked = 0
        for level_mm in np.arange(50.0, 250.1, 5.0).tolist():
            m = model_at(level_mm / 1000.0)
            try:
                expected = fpcf(m, chord_mm / 1000.0)
            except DegenerateProfileError:  # a 30 mm chord's mean turns negative near the crown
                with pytest.raises(DegenerateProfileError):
                    point_fpcf(m, chord_mm / 1000.0)
                continue
            assert point_fpcf(m, chord_mm / 1000.0) == pytest.approx(expected, rel=1e-14, abs=0)
            checked += 1
        assert checked >= 40

    def test_dry_chord_rejected(self):
        with pytest.raises(DryPathError):
            point_fpcf(model_at(0.049), 0.050)
        with pytest.raises(OutOfRangeError, match="chord height must be positive"):
            point_fpcf(model_at(0.1), 0.0)

    def test_degenerate_profile_rejected(self):
        # entropy.m = 0.3 gives a negative area mean: fpcf() refuses it, and so must the
        # simulator's rule, or simulate divides the flow by a negative factor
        m = ProfileModel(PIPE, WaterLevel(0.065), EntropyParams(m=0.3))
        with pytest.raises(DegenerateProfileError) as array_rule:
            fpcf(m, 0.050)
        with pytest.raises(DegenerateProfileError) as point_rule:
            point_fpcf(m, 0.050)
        assert str(point_rule.value) == str(array_rule.value)


class TestTabulate:
    def test_standard_table(self, fpcf_table):
        assert len(fpcf_table) == 21
        assert [h for h, _ in fpcf_table] == [50.0 + 10.0 * k for k in range(21)]
        assert all(type(value) is float and 0 < value < np.inf for _, value in fpcf_table)

    def test_step_larger_than_range(self, pipe, params):
        samples = tabulate_fpcf(pipe, params, 50.0, 60.0, 70.0, 200.0)
        assert len(samples) == 1
        assert samples[0][0] == 60.0

    def test_start_below_chord_rejected(self, pipe, params):
        with pytest.raises(OutOfRangeError):
            tabulate_fpcf(pipe, params, 50.0, 40.0, 250.0, 10.0)

    @pytest.mark.parametrize("name", ["chord_height_mm", "h_min_mm", "h_max_mm", "step_mm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_argument_named(self, pipe, params, name, value):
        # h_max_mm = inf overflowed in int(), step_mm = nan failed to convert, and a
        # nan chord height blamed the profile
        args = dict(chord_height_mm=50.0, h_min_mm=50.0, h_max_mm=250.0, step_mm=10.0)
        with pytest.raises(OutOfRangeError, match=f"^{name} must be finite"):
            tabulate_fpcf(pipe, params, **{**args, name: value})

    def test_sample_failure_names_level(self, pipe, params, monkeypatch):
        calls = []

        def failing(model, chord_height_m, quad):
            calls.append(model.level.level_m)
            if len(calls) == 2:
                raise DryPathError("forced")
            return 1.0

        monkeypatch.setattr(fpcf_module, "fpcf", failing)
        with pytest.raises(PartialFlowError, match="H = 60"):
            tabulate_fpcf(pipe, params, 50.0, 50.0, 80.0, 10.0)

    def test_each_level_runs_the_traced_layers_once(self, pipe, params, monkeypatch):
        # A profiler that wraps these module globals reads its per-layer figures
        # from one call of each per level; a batched table would zero them.
        calls = {}
        for name in ("fpcf", "mean_area_velocity", "mean_chord_velocity"):
            def counted(*args, _inner=getattr(fpcf_module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(fpcf_module, name, counted)
        samples = tabulate_fpcf(pipe, params, 50.0, 50.0, 110.0, 20.0)
        assert len(samples) == 4
        assert calls == {"fpcf": 4, "mean_area_velocity": 4, "mean_chord_velocity": 4}

    def test_per_millimeter_continuity(self, pipe, params):
        # no jumps from the piecewise model; the extreme top end (above
        # ~240 mm) steepens smoothly beyond this figure and is excluded
        for level in (60.0, 90.0, 127.0, 150.0, 187.0, 215.0, 239.0):
            a = fpcf(model_at(level / 1000.0), 0.050)
            b = fpcf(model_at((level + 1.0) / 1000.0), 0.050)
            assert abs(b - a) < 0.05


class TestFit:
    def test_exact_round_trip_recovers_coefficients(self):
        truth = RIG_REFERENCE_FPCF_COEFFS
        levels = np.arange(50.0, 251.0, 10.0)

        def poly(h):
            acc = 0.0
            for c in reversed(truth):
                acc = acc * h + c
            return acc

        fit = fit_polynomial([(h, poly(h)) for h in levels])
        for got, want in zip(fit.polynomial.coeffs, truth):
            assert got == pytest.approx(want, rel=1e-8)
        assert fit.rms_residual < 1e-12

    def test_pipeline_fit_self_residuals(self, fpcf_table, full_range_fit):
        poly = full_range_fit.polynomial
        errors = [abs(poly(level) - value) for level, value in fpcf_table]
        assert max(errors) == full_range_fit.max_residual  # the vector residuals, bit for bit

    def test_operating_band_fit_is_tight(self, operating_fit):
        assert operating_fit.rms_residual < 1e-3
        assert operating_fit.polynomial.h_max_mm == 180.0

    def test_degree_zero_constant(self):
        # constant samples fit the degree-zero polynomial 1.3
        fit = fit_polynomial([(h, 1.3) for h in range(50, 260, 10)])
        assert fit.polynomial.coeffs[0] == pytest.approx(1.3, rel=1e-12)
        assert fit.polynomial(np.arange(50.0, 251.0)) == pytest.approx(1.3, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(OutOfRangeError):
            fit_polynomial([(h, 1.0) for h in range(50, 110, 10)])

    @pytest.mark.parametrize("pair", [(60.0, float("inf")), (float("nan"), 1.0)],
                             ids=["fpcf_inf", "level_nan"])
    def test_non_finite_pair_rejected(self, pair):
        # a nan level reached LAPACK, an inf FPCF gave nan coefficients
        samples = [(h, 1.0) for h in range(50, 130, 10)] + [pair]
        with pytest.raises(OutOfRangeError, match="must have finite levels and values"):
            fit_polynomial(samples)

    def test_rank_deficient(self):
        with pytest.raises(PartialFlowError, match="rank"):
            fit_polynomial([(100.0, 1.0)] * 21)


class TestEval:
    def test_reference_polynomial_values(self):
        poly = FpcfPolynomial(RIG_REFERENCE_FPCF_COEFFS, 50.0, 250.0)
        assert poly(125.0) == pytest.approx(1.017, abs=5e-4)
        assert poly(50.0) == pytest.approx(0.910, abs=5e-4)
        # one evaluator for scalars and arrays, bit for bit
        assert poly(np.array([125.0, 50.0])).tolist() == [poly(125.0), poly(50.0)]

    def test_out_of_range_guarded(self):
        # the polynomial evaluates anywhere; process_lines's status is the range guard
        poly = FpcfPolynomial(RIG_REFERENCE_FPCF_COEFFS, 60.0, 200.0)
        assert np.isfinite(poly(40.0)) and np.isfinite(poly(240.0))
        levels = (59.0, 60.0, 200.0, 201.0)
        rows = [f"{k}.0,{chord},135000.0,135010.0,{h!r}"
                for k, h in enumerate(levels) for chord in "ab"]
        (chunk,) = process_lines(rows, RunConfig(**{**vars(default_config()), "poly": poly}))
        assert [STATUSES[s].value for s in chunk.status] == [
            "fpcf_out_of_range", "ok", "ok", "fpcf_out_of_range"]
        assert chunk.fpcf.tolist() == [1.0, poly(60.0), poly(200.0), 1.0]

    def test_sample_positivity_enforced(self, pipe, params, monkeypatch):
        # a table row holds fpcf()'s factor, which is positive or raises
        monkeypatch.setattr(fpcf_module, "mean_area_velocity", lambda model, quad: 0.0)
        with pytest.raises(PartialFlowError, match="^FPCF tabulation failed at H = 100 mm: "
                           "FPCF undefined") as excinfo:
            tabulate_fpcf(pipe, params, 50.0, 100.0, 120.0, 10.0)
        assert isinstance(excinfo.value.__cause__, DegenerateProfileError)

    @pytest.mark.parametrize("level,chord,value", [
        (100.0, 50.0, float("inf")), (float("nan"), 50.0, 1.0), (float("inf"), 50.0, 1.0),
        (float("-inf"), 50.0, 1.0), (100.0, float("nan"), 1.0), (100.0, float("inf"), 1.0),
        (100.0, -5.0, 1.0), (100.0, 0.0, 1.0),
    ], ids=["fpcf_inf", "level_nan", "level_inf", "level_-inf", "chord_nan", "chord_inf",
            "chord_negative", "chord_zero"])
    def test_non_finite_sample_rejected(self, pipe, params, monkeypatch, level, chord, value):
        # a table row is (level, fpcf) at one chord height: tabulate_fpcf and fpcf()
        # reject what the FpcfSample record did, an area mean of ``value`` giving the fpcf
        monkeypatch.setattr(fpcf_module, "mean_area_velocity", lambda model, quad: value)
        with pytest.raises(PartialFlowError,
                           match="must be finite|must be positive|is not finite and positive"):
            tabulate_fpcf(pipe, params, chord, level, level, 10.0)

    def test_bad_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            FpcfPolynomial((1.0,), 100.0, 100.0)

    @pytest.mark.parametrize("coeffs,h_min,h_max", [
        ((float("nan"), 1.0), 50.0, 250.0), ((1.0, float("-inf")), 50.0, 250.0),
        ((1.0,), float("nan"), 250.0), ((1.0,), 50.0, float("nan")),
        ((1.0,), float("-inf"), 250.0), ((1.0,), 50.0, float("inf")),
    ], ids=["c0_nan", "c1_-inf", "h_min_nan", "h_max_nan", "h_min_-inf", "h_max_inf"])
    def test_non_finite_polynomial_rejected(self, coeffs, h_min, h_max):
        with pytest.raises(OutOfRangeError, match="must be finite|invalid validity range"):
            FpcfPolynomial(coeffs, h_min, h_max)
