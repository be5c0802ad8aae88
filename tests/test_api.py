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
    "clogging": ["AlarmEvent", "AlarmState", "DecisionBoundary", "Verdict", "classify"],
    "config": ["RunConfig", "default_config", "load_config", "parse_config"],
    "errors": ["ConfigError", "DegenerateProfileError", "DryPathError", "FpcfRangeError",
               "InvalidTimesError", "NumericalDomainError", "OutOfRangeError",
               "PartialFlowError", "QuadratureError"],
    "fpcf": ["FitResult", "FpcfPolynomial", "FpcfSample", "eval_fpcf", "fit_polynomial", "fpcf",
             "mean_area_velocity", "mean_chord_velocity", "tabulate_fpcf"],
    "geometry": ["PipeGeometry", "WaterLevel", "chord_half_width", "hydraulic_diameter",
                 "reynolds", "segment_area", "wetted_angle", "wetted_perimeter"],
    "measurement": ["ChordReading", "ChordSpec", "EstimateStatus", "FrameDiagnostic",
                    "SensorFrame", "line_velocity", "process_lines", "write_frame_rows"],
    "profile": ["DipPositionPoly", "EntropyParams", "ProfileModel", "ProfilePoint", "dip_ratio",
                "evaluate_velocity", "normalized_velocity", "profile_grid"],
    "quadrature": ["QuadratureSpec", "adaptive_integrate"],
    "simulator": ["ScenarioSpec", "WeirMode", "baseline_level_mm", "chord_velocity_from_truth",
                  "generate", "transit_times", "weir_shift"],
}
HOME = [(module, name) for module, names in EXPORTS.items() for name in names]
# The per-frame object views and test-only helpers that the package no longer has.
REMOVED = [("clogging", "step_alarm"), ("measurement", "DEFAULT_PLAUSIBILITY_CAP"),
           ("measurement", "FlowEstimate"), ("measurement", "ProcessedFrame"),
           ("measurement", "_pack_frames"), ("measurement", "_VERDICTS"),
           ("measurement", "process_stream"), ("measurement", "estimate_flow"),
           ("measurement", "read_frame_rows"), ("profile", "local_frame"),
           ("profile", "velocity_cdf")]


def test_all_lists_the_public_names():
    assert len(HOME) == 67
    assert sorted(partialflow.__all__) == sorted(name for _, name in HOME)
    assert set(partialflow.__all__) <= set(dir(partialflow))


@pytest.mark.parametrize("module,name", HOME)
def test_name_is_its_modules_object(module, name):
    assert getattr(partialflow, name) is getattr(
        importlib.import_module(f"partialflow.{module}"), name)


@pytest.mark.parametrize("module,name", REMOVED)
def test_removed_name_is_gone(module, name):
    with pytest.raises(AttributeError, match=name):
        getattr(partialflow, name)
    assert not hasattr(importlib.import_module(f"partialflow.{module}"), name)


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
