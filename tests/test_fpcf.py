import math
from pathlib import Path

import numpy as np
import pytest

from partialflow import (
    ChordSpec,
    ConfigError,
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
    adaptive_integrate,
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
from partialflow.measurement import process_lines
from partialflow.profile import ProfilePoint

from conftest import RIG_REFERENCE_FPCF_COEFFS

PIPE = PipeGeometry(0.250)
ROOT = Path(__file__).resolve().parents[1]
ARRAY_RULE = ROOT / "tests" / "data" / "fpcf_array_rule.csv"


def model_at(level_m):
    return ProfileModel(pipe=PIPE, level=WaterLevel(level_m))


def table_config(chord_height_mm=50.0, h_min_mm=50.0, h_max_mm=250.0, step_mm=10.0):
    """A config built as a library caller builds one, past the document parser: one chord
    on a 0.3 m path at 45 degrees, and the FPCF range ``tabulate_fpcf`` reads."""
    chord = ChordSpec("a", chord_height_mm, 0.3, math.pi / 4)
    return RunConfig(PIPE, EntropyParams(), (chord,), fpcf_h_min_mm=h_min_mm,
                     fpcf_h_max_mm=h_max_mm, fpcf_step_mm=step_mm)


@pytest.fixture
def constant_profile(monkeypatch):
    """Inject v/v_max = 1 everywhere, as a row kernel (the sum of dx over a row's nodes);
    integral means must come out 1."""
    def row(nodes, y, w):
        return math.fsum(dx for _, _, dx in nodes)

    monkeypatch.setattr(fpcf_module, "_velocity", lambda model: (row, 1.0))


# the one plain-float rule takes a level and a chord height read out of a numpy array
# ("array": numpy float64 scalars) as it takes plain floats ("point")
INPUTS = {"array": lambda value: np.array([value])[0], "point": float}


class TestMeans:
    @pytest.mark.parametrize("as_input", INPUTS.values(), ids=INPUTS.keys())
    def test_constant_profile_area_mean(self, constant_profile, as_input):
        assert mean_area_velocity(model_at(as_input(0.125))) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("as_input", INPUTS.values(), ids=INPUTS.keys())
    def test_constant_profile_chord_mean(self, constant_profile, as_input):
        value = mean_chord_velocity(model_at(as_input(0.125)), as_input(0.050))
        assert value == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("as_input", INPUTS.values(), ids=INPUTS.keys())
    def test_constant_profile_fpcf(self, constant_profile, as_input):
        assert fpcf(model_at(as_input(0.125)), as_input(0.050)) == pytest.approx(1.0, rel=1e-9)

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
        # even integrand: the two halves of the chord, each on the graded map, get
        # mirrored meshes at every doubling; each is the half chord's mean
        m = model_at(0.125)
        w = chord_half_width(0.050, PIPE)

        def half(sign):
            return adaptive_integrate(lambda u: normalized_velocity(ProfilePoint(
                sign * w * math.sin(0.5 * math.pi * u), 0.050), m) * (
                    0.5 * math.pi * math.cos(0.5 * math.pi * u)), 0.0, 1.0)[0]

        assert half(-1.0) == half(1.0)
        assert half(1.0) == pytest.approx(mean_chord_velocity(m, 0.050), rel=1e-12)

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
    """``fpcf``, in plain floats, against the factors of the array rule it replaced
    (``tests/data/fpcf_array_rule.csv``): beyond two panels per piece the area mean now
    refines along its rows first, which moves a factor by at most its 1e-6 tolerance."""

    @pytest.mark.parametrize("chord_mm", [30.0, 50.0])
    def test_matches_the_array_rule(self, chord_mm):
        rows = [line.split(",") for line in ARRAY_RULE.read_text().splitlines()[2:]]
        stored = {float(h): value for chord, h, value in rows if float(chord) == chord_mm}
        got, worst = {}, 0.0
        for level_mm in stored:
            try:
                got[level_mm] = fpcf(model_at(level_mm / 1000.0), chord_mm / 1000.0)
            except DegenerateProfileError:  # a 30 mm chord's mean turns negative near the crown
                got[level_mm] = "refused"
                continue
            worst = max(worst, abs(got[level_mm] / float(stored[level_mm]) - 1.0))
        assert [h for h, v in got.items() if v == "refused"] == [
            h for h, v in stored.items() if v == "refused"]
        assert worst <= 2.5e-7 and len(got) >= 41

    def test_dry_chord_rejected(self):
        with pytest.raises(DryPathError):
            fpcf(model_at(0.049), 0.050)
        with pytest.raises(OutOfRangeError, match="chord height must be positive"):
            fpcf(model_at(0.1), 0.0)

    def test_degenerate_profile_rejected(self):
        # entropy.m = 0.3 gives a negative area mean, which fpcf() refuses, or simulate
        # divides the flow by a negative factor
        m = ProfileModel(PIPE, WaterLevel(0.065), EntropyParams(m=0.3))
        with pytest.raises(DegenerateProfileError, match=r"^FPCF undefined at Y=0\.05 m, "
                           r"H=0\.065 m: area mean -0\.5196\d* over chord mean -0\.0593"):
            fpcf(m, 0.050)


class TestPanels:
    """Where panel doubling stops on the default table (chord at 50 mm, 50-250 mm): the
    area mean runs (1, 1), (2, 2), then (2, 4), (4, 8), ... (t panels across rows, u
    panels along them), since the u axis carries most of the error."""

    def test_panels_of_the_default_table(self, monkeypatch):
        calls, axis = [], fpcf_module._axis
        monkeypatch.setattr(fpcf_module, "_axis",
                            lambda breaks, n: calls.append(n) or axis(breaks, n))
        panels = {}
        for level_mm in range(50, 251, 10):
            model = model_at(level_mm / 1000.0)
            calls.clear()
            mean_area_velocity(model)
            area = (calls[-1], calls[-2])  # the last estimate builds its u nodes, then its t
            calls.clear()
            mean_chord_velocity(model, 0.050)
            panels[level_mm] = (area, calls[-1])
        assert panels == {**{h: ((2, 2), 2) for h in range(50, 181, 10)},
                          190: ((2, 4), 2), 200: ((2, 4), 4), 210: ((2, 2), 4),
                          220: ((2, 2), 4), 230: ((2, 4), 4), 240: ((2, 2), 2),
                          250: ((2, 2), 2)}

    def test_velocity_evaluations_of_the_default_table(self, monkeypatch):
        # the row kernel evaluates v/v_max once per node of each row it is given
        points, velocity = [], fpcf_module._velocity

        def counted(model):
            row, power = velocity(model)
            return (lambda nodes, *args: points.append(len(nodes)) or row(nodes, *args)), power

        monkeypatch.setattr(fpcf_module, "_velocity", counted)
        tabulate_fpcf(table_config())
        assert sum(points) == 71_385

    def test_error_against_the_tight_table(self):
        # bench/data/fpcf_tight.csv: 81 levels by 2.5 mm at rel_tol 1e-9
        lines = (ROOT / "bench" / "data" / "fpcf_tight.csv").read_text().splitlines()[1:]
        errors = {}
        for line in lines:
            level_mm, tight = map(float, line.split(","))
            errors[level_mm] = abs(fpcf(model_at(level_mm / 1000.0), 0.050) / tight - 1.0)
        worst = max(errors, key=errors.get)
        assert len(errors) == 81 and worst == 220.0
        assert errors[worst] == pytest.approx(5.2766e-7, rel=1e-4)


class TestTabulate:
    def test_standard_table(self, fpcf_table):
        assert len(fpcf_table) == 21
        assert [h for h, _ in fpcf_table] == [50.0 + 10.0 * k for k in range(21)]
        assert all(type(value) is float and 0 < value < np.inf for _, value in fpcf_table)

    def test_step_larger_than_range(self):
        samples = tabulate_fpcf(table_config(h_min_mm=60.0, h_max_mm=70.0, step_mm=200.0))
        assert len(samples) == 1
        assert samples[0][0] == 60.0

    def test_start_below_chord_rejected(self):
        # an uncorrected config may start below its chords; its table may not
        config = table_config(h_min_mm=40.0)
        message = "fpcf.h_min_mm = 40 lies below the lowest chord at 50 mm"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            tabulate_fpcf(config)

    def test_table_is_taken_at_the_lowest_chord(self):
        # the lowest of three chords, listed neither first nor last
        chords = tuple(ChordSpec(chord_id, height, 0.3, math.pi / 4)
                       for chord_id, height in zip("abc", (100.0, 50.0, 120.0)))
        one_level = table_config(h_min_mm=60.0, h_max_mm=60.0)
        config = RunConfig(**{**vars(one_level), "chords": chords})
        assert tabulate_fpcf(config) == [(60.0, fpcf(model_at(0.060), 0.050))]

    @pytest.mark.parametrize("name", ["chord_height_mm", "h_min_mm", "h_max_mm", "step_mm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_argument_named(self, name, value):
        # h_max_mm = inf overflowed in int(), step_mm = nan failed to convert, and a nan
        # chord height blamed the profile; the table's config now refuses each, by name
        args = dict(chord_height_mm=50.0, h_min_mm=50.0, h_max_mm=250.0, step_mm=10.0)
        key = "chord height" if name == "chord_height_mm" else f"fpcf.{name}"
        with pytest.raises(PartialFlowError, match=f"^{key} must be finite"):
            table_config(**{**args, name: value})

    def test_sample_failure_names_level(self, monkeypatch):
        calls = []

        def failing(model, chord_height_m, quad):
            calls.append(model.level.level_m)
            if len(calls) == 2:
                raise DryPathError("forced")
            return 1.0

        monkeypatch.setattr(fpcf_module, "fpcf", failing)
        with pytest.raises(ConfigError) as excinfo:
            tabulate_fpcf(table_config(h_max_mm=80.0))
        assert str(excinfo.value) == ("FPCF tabulation failed at H = 60 mm: forced; the chord "
                                      "at 50 mm needs fpcf.h_max_mm (80) below that level")
        assert type(excinfo.value.__cause__) is DryPathError  # one wrapping, not two

    def test_first_level_failure_names_the_profile(self, monkeypatch):
        # the advice was to lower fpcf.h_max_mm below the first level, which RunConfig
        # refuses; at the first level the profile is at fault
        def failing(model, chord_height_m, quad):
            raise DegenerateProfileError("forced")

        monkeypatch.setattr(fpcf_module, "fpcf", failing)
        with pytest.raises(ConfigError) as excinfo:
            tabulate_fpcf(table_config(h_max_mm=80.0))
        assert str(excinfo.value) == (
            "FPCF tabulation failed at H = 50 mm: forced; the profile (entropy.m = "
            f"{EntropyParams().m:g}, entropy.q = {EntropyParams().q:g}) gives none at the first "
            "level, fpcf.h_min_mm (50)")

    def test_last_level_is_taken_at_h_max(self):
        # 50.9 + 11 * 18.1 rounds to 250.00000000000003, above the crown: "FPCF
        # tabulation failed at H = 250 mm: water level 0.25 m exceeds pipe diameter"
        table = tabulate_fpcf(table_config(h_min_mm=50.9, step_mm=18.1))
        assert len(table) == 12 and table[-1][0] == 250.0
        assert max(level for level, _ in table) <= 250.0

    def test_each_level_runs_the_traced_layers_once(self, monkeypatch):
        # A profiler that wraps these module globals reads its per-layer figures
        # from one call of each per level; a batched table would zero them.
        calls = {}
        for name in ("fpcf", "mean_area_velocity", "mean_chord_velocity"):
            def counted(*args, _inner=getattr(fpcf_module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(fpcf_module, name, counted)
        samples = tabulate_fpcf(table_config(h_max_mm=110.0, step_mm=20.0))
        assert len(samples) == 4
        assert calls == {"fpcf": 4, "mean_area_velocity": 4, "mean_chord_velocity": 4}

    def test_per_millimeter_continuity(self):
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

    def test_matches_lstsq_on_the_default_table(self, fpcf_table, full_range_fit):
        # numpy's SVD least squares on the same scaled Vandermonde matrix
        levels, values = np.array(fpcf_table).T
        vander = np.vander(levels / levels.max(), 7, increasing=True)
        scaled = np.linalg.lstsq(vander, values, rcond=None)[0]
        want = scaled / levels.max() ** np.arange(7)
        np.testing.assert_allclose(full_range_fit.polynomial.coeffs, want, rtol=1e-9, atol=0)

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
        assert [fit.polynomial(h) for h in range(50, 251)] == pytest.approx([1.3] * 201, rel=1e-12)

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

    def test_all_zero_levels_rejected(self):
        with pytest.raises(OutOfRangeError, match="sample levels must not all be zero"):
            fit_polynomial([(0.0, 1.0 + k) for k in range(10)])

    def test_rank_deficient(self):
        with pytest.raises(PartialFlowError, match="rank"):
            fit_polynomial([(100.0, 1.0)] * 21)


class TestEval:
    def test_reference_polynomial_values(self):
        poly = FpcfPolynomial(RIG_REFERENCE_FPCF_COEFFS, 50.0, 250.0)
        assert poly(125.0) == pytest.approx(1.017, abs=5e-4)
        assert poly(50.0) == pytest.approx(0.910, abs=5e-4)

    def test_out_of_range_guarded(self):
        # the polynomial evaluates anywhere; process_lines's status is the range guard
        poly = FpcfPolynomial(RIG_REFERENCE_FPCF_COEFFS, 60.0, 200.0)
        assert np.isfinite(poly(40.0)) and np.isfinite(poly(240.0))
        levels = (59.0, 60.0, 200.0, 201.0)
        rows = [f"{k}.0,{chord},135000.0,135010.0,{h!r}"
                for k, h in enumerate(levels) for chord in "ab"]
        frames = list(process_lines(rows, RunConfig(**{**vars(default_config()), "poly": poly})))
        assert [f.status.value for f in frames] == [
            "fpcf_out_of_range", "ok", "ok", "fpcf_out_of_range"]
        assert [f.fpcf for f in frames] == [1.0, poly(60.0), poly(200.0), 1.0]

    def test_sample_positivity_enforced(self, monkeypatch):
        # a table row holds fpcf()'s factor, which is positive or raises
        monkeypatch.setattr(fpcf_module, "mean_area_velocity", lambda model, quad: 0.0)
        with pytest.raises(ConfigError, match="^FPCF tabulation failed at H = 100 mm: "
                           "FPCF undefined") as excinfo:
            tabulate_fpcf(table_config(h_min_mm=100.0, h_max_mm=120.0))
        assert isinstance(excinfo.value.__cause__, DegenerateProfileError)

    @pytest.mark.parametrize("level,chord,value", [
        (100.0, 50.0, float("inf")), (float("nan"), 50.0, 1.0), (float("inf"), 50.0, 1.0),
        (float("-inf"), 50.0, 1.0), (100.0, float("nan"), 1.0), (100.0, float("inf"), 1.0),
        (100.0, -1.0, 1.0), (100.0, 0.0, 1.0),
    ], ids=["fpcf_inf", "level_nan", "level_inf", "level_-inf", "chord_nan", "chord_inf",
            "chord_negative", "chord_zero"])
    def test_non_finite_sample_rejected(self, monkeypatch, level, chord, value):
        # a table row is (level, fpcf) at one chord height: the config's ChordSpec and
        # RunConfig, and fpcf(), reject what the FpcfSample record did, an area mean of
        # ``value`` giving the fpcf
        monkeypatch.setattr(fpcf_module, "mean_area_velocity", lambda model, quad: value)
        with pytest.raises(PartialFlowError, match="must be finite|is not finite and positive"):
            tabulate_fpcf(table_config(chord, level, level))

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
