"""The package's public names: the same objects as the modules that define them,
loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partialflow

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXPORTS = {
    "calibration": ["ErrorTable", "TrialRecord", "calibration_factor", "error_table", "fwme",
                    "percent_error", "repeatability"],
    "clogging": ["AlarmEvent", "Debounce", "Verdict", "classify"],
    "config": ["ChordSpec", "DecisionBoundary", "EntropyParams", "FitResult", "FpcfPolynomial",
               "RunConfig", "default_config", "load_config", "parse_config"],
    "errors": ["ConfigError", "DegenerateProfileError", "DryPathError", "InvalidTimesError",
               "OutOfRangeError", "PartialFlowError", "QuadratureError"],
    "fpcf": ["fit_polynomial", "fpcf", "mean_area_velocity", "mean_chord_velocity",
             "tabulate_fpcf"],
    "geometry": ["PipeGeometry", "WaterLevel", "chord_half_width", "reynolds", "segment_area"],
    "measurement": ["ChordReading", "EstimateStatus", "FrameDiagnostic", "SensorFrame",
                    "line_velocity", "process_lines", "write_frame_rows"],
    "profile": ["DipPositionPoly", "ProfileModel", "ProfilePoint", "normalized_velocity",
                "profile_grid"],
    "quadrature": ["QuadratureSpec", "adaptive_integrate"],
    "simulator": ["ScenarioSpec", "WeirMode", "baseline_level_mm", "chord_velocity_from_truth",
                  "generate", "transit_times", "weir_shift"],
}
HOME = [(module, name) for module, names in EXPORTS.items() for name in names]
# The per-frame object views, test-only helpers, state that nothing read, duplicates
# that the package no longer has (``dip_ratio(t)`` was ``DEFAULT_DIP_POLY(t)``;
# ``eval_fpcf(poly, h)`` and ``horner(poly.coeffs, h)`` are ``poly(h)``, whose range
# ``process_lines`` checks; ``_evaluate_cdf`` is part of ``profile._velocity`` and
# ``_composite`` of ``quadrature._axis``), an error that nothing raises, what only
# row chunks needed (``process_lines`` yields each record as it comes, and
# ``clogging.Debounce`` steps the alarm one verdict at a time), and the names of the
# two quadrature rules, an array rule and a point rule, that are now one in plain floats,
# the record that only seeded ``Debounce``, which takes its fields itself, and the
# hydraulic diameter and wetted perimeter, which only ``reynolds`` read.
REMOVED = [("cli", "_chunk_records"), ("cli", "_diagnostic_record"), ("clogging", "AlarmStage"),
           ("clogging", "step_alarm"), ("clogging", "step_alarms"), ("errors", "FpcfRangeError"),
           ("errors", "NumericalDomainError"), ("measurement", "CHUNK_ROWS_CAP"),
           ("measurement", "FIRST_CHUNK_ROWS"), ("measurement", "FrameChunk"),
           ("measurement", "_BITS"),
           ("fpcf", "FpcfSample"), ("fpcf", "eval_fpcf"), ("fpcf", "horner"),
           ("measurement", "DEFAULT_PLAUSIBILITY_CAP"),
           ("measurement", "FlowEstimate"), ("measurement", "ProcessedFrame"),
           ("measurement", "_pack_frames"), ("measurement", "_VERDICTS"),
           ("measurement", "process_stream"), ("measurement", "estimate_flow"),
           ("measurement", "read_frame_rows"), ("profile", "dip_ratio"),
           ("profile", "local_frame"), ("profile", "velocity_cdf"), ("profile", "_evaluate_cdf"),
           ("quadrature", "_composite"), ("profile", "evaluate_velocity"),
           ("profile", "point_velocity"), ("fpcf", "point_fpcf"),
           ("quadrature", "unit_integrate"), ("quadrature", "point_integrate"),
           ("clogging", "AlarmState"), ("geometry", "hydraulic_diameter"),
           ("geometry", "wetted_perimeter"), ("config", "lowest_chord_mm")]


def test_all_lists_the_public_names():
    assert len(HOME) == 58
    assert sorted(partialflow.__all__) == sorted(name for _, name in HOME)
    assert set(partialflow.__all__) <= set(dir(partialflow))


@pytest.mark.parametrize("module,name", HOME)
def test_name_is_its_modules_object(module, name):
    # defined there, not imported: a moved or re-exported name fails here
    obj = getattr(partialflow, name)
    assert obj is getattr(importlib.import_module(f"partialflow.{module}"), name)
    assert obj.__module__ == f"partialflow.{module}"


def test_frame_and_alarm_layers_read_their_records_from_config():
    """Every run record is config's: measurement and clogging define none, and import the
    chord and the decision boundary their rules take."""
    from partialflow import clogging, measurement

    assert partialflow.ChordSpec is measurement.ChordSpec
    assert partialflow.DecisionBoundary is clogging.DecisionBoundary
    assert not hasattr(measurement, "record") and not hasattr(clogging, "record")


@pytest.mark.parametrize("module,name", REMOVED)
def test_removed_name_is_gone(module, name):
    with pytest.raises(AttributeError, match=name):
        getattr(partialflow, name)
    assert not hasattr(importlib.import_module(f"partialflow.{module}"), name)


def test_process_lines_yields_frames_and_diagnostics():
    """``process_lines`` yields a ``Frame`` per estimated frame and a ``FrameDiagnostic``
    per bad row or out-of-pipe frame, nothing else, and no chunk of them."""
    from partialflow import FrameDiagnostic, default_config, process_lines
    from partialflow.measurement import Frame

    rows = ["0.0,a,202696.0,202725.0,85.0\n", "broken row\n", "1.0,a,1,2,900.0\n",
            "2.0,a,202696.0,202725.0,85.0\n"]
    items = list(process_lines(rows, default_config()))
    assert [type(item) for item in items] == [FrameDiagnostic, Frame, FrameDiagnostic, Frame]


def test_per_frame_values_are_tuples_and_settings_records():
    """A record is a value that checks itself: every class ``record`` built defines
    ``__post_init__``. Every other value, per row, per frame or a result, is a named
    tuple."""
    import inspect
    import pkgutil

    from partialflow import (ChordReading, ChordSpec, ErrorTable, FitResult, FrameDiagnostic,
                             ProfilePoint, RunConfig, SensorFrame)
    from partialflow.calibration import ErrorRow
    from partialflow.profile import ProfileGrid

    assert all(issubclass(cls, tuple) for cls in (ChordReading, SensorFrame, FrameDiagnostic))
    assert FrameDiagnostic("x") == FrameDiagnostic("x", None, None)
    assert not issubclass(ChordSpec, tuple) and not issubclass(RunConfig, tuple)
    modules = [importlib.import_module(f"partialflow.{info.name}")
               for info in pkgutil.iter_modules(partialflow.__path__)]
    records = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__init__.__qualname__ == "record.<locals>.__init__"}
    assert ChordSpec in records and RunConfig in records
    assert [cls.__name__ for cls in records if "__post_init__" not in vars(cls)] == []
    results = (FitResult, ErrorRow, ErrorTable, ProfilePoint, ProfileGrid)
    assert all(issubclass(cls, tuple) for cls in results) and not records & {*results}
    assert repr(ProfilePoint(0.0, 0.1)) == "ProfilePoint(x=0.0, y=0.1)"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partialflow.no_such_name  # noqa: B018
    assert not hasattr(partialflow, "numpy")


@pytest.mark.parametrize("first", ["", "import partialflow.config", "import partialflow.fpcf"])
def test_fpcf_is_the_function_in_every_import_order(first):
    """The fpcf submodule, imported before or after the name is used, does not
    replace the function on the package."""
    code = (f"{first}\nfrom partialflow import fpcf\nimport partialflow, partialflow.fpcf\n"
            "print(callable(fpcf), partialflow.fpcf is fpcf)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]


def test_run_settings_have_one_home(capsys):
    """A run setting takes its value from ``RunConfig``, the fit degree from
    ``fpcf.POLY_DEGREE``, the quadrature from ``quadrature.DEFAULT_QUADRATURE`` and a
    simulated scenario from ``ScenarioSpec``; no function or flag keeps a second
    default beside them, and no record keeps a field that nothing reads."""
    import inspect

    cli, clogging, config, fpcf, measurement, quadrature = map(importlib.import_module, (
        "partialflow.cli", "partialflow.clogging", "partialflow.config", "partialflow.fpcf",
        "partialflow.measurement", "partialflow.quadrature"))

    # the polynomial reaches the frame path as RunConfig.poly, which RunConfig checks itself
    frame_params = inspect.signature(measurement.process_lines).parameters
    assert list(frame_params) == ["lines", "config"]
    assert not hasattr(config, "_validate")
    assert all(p.default is inspect.Parameter.empty for p in frame_params.values())
    # the FPCF table reads its pipe, chords, range and quadrature from the RunConfig alone
    assert list(inspect.signature(fpcf.tabulate_fpcf).parameters) == ["config"]
    assert not hasattr(config, "fpcf_table") and not hasattr(config, "_lowest_chord_mm")
    debounce = inspect.signature(clogging.Debounce).parameters
    assert list(debounce) == ["threshold", "alarm", "count"]
    assert debounce["threshold"].default is inspect.Parameter.empty
    # metrics --k-cal is the one default of the metrics path's factor
    calibration = importlib.import_module("partialflow.calibration")
    k_cal = inspect.signature(calibration.error_table).parameters["k_cal"]
    assert k_cal.default is inspect.Parameter.empty
    # the default configuration is the empty document, parsed like any other
    assert not hasattr(config, "_default_chords")
    assert list(inspect.signature(fpcf.fit_polynomial).parameters) == ["samples"]
    assert measurement.Frame._fields == ("ts", "level", "v_line", "area", "fpcf", "flow_m3s",
                                         "status", "clog", "event")
    # one quadrature: its Gauss order is a constant, and no config key or field sets it
    assert tuple(quadrature.QuadratureSpec.__annotations__) == ("rel_tol", "max_depth")
    assert not [key for key in config._SCALARS if key.startswith("quad.")]
    assert "quad" not in config.RunConfig.__annotations__
    assert config.default_config().quad is quadrature.DEFAULT_QUADRATURE
    with pytest.raises(TypeError):
        config.RunConfig(pipe=None, params=None, chords=(), quad=quadrature.DEFAULT_QUADRATURE)
    # simulate's optional flags are left out of args, so ScenarioSpec's defaults hold
    args = cli.build_parser().parse_args(["simulate", "--flow-lps", "3"])
    assert set(vars(args)) == {"command", "func", "config", "flow_lps", "level_mm", "out"}
    assert len(config._COEFF_KEYS) == fpcf.POLY_DEGREE + 1
    assert not hasattr(config, "_POLY_DEGREE") and not hasattr(cli, "_STATUS_TEXT")
    assert not hasattr(measurement, "STATUSES") and not hasattr(cli, "_CLOG_TEXT")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--degree", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree 6" in capsys.readouterr().err
