"""Transit-time ultrasonic flow measurement for partially filled pipes.

Library layers: circular-segment geometry, the entropy-based normalized
velocity profile, the flow profile correction factor (quadrature,
tabulation, polynomial fit), transit-time flow estimation, calibration
and error metrics, clogging detection, and a synthetic flow-loop
simulator. The :mod:`partialflow.cli` module wires them into a CLI.

Importing the package loads none of them: each exported name imports its
module on first use (PEP 562), so a command loads only the layers it runs.
No layer uses numpy.
"""

import importlib
import sys
import types

_EXPORTS = {
    "calibration": ("ErrorTable", "TrialRecord", "calibration_factor", "error_table", "fwme",
                    "percent_error", "repeatability"),
    "clogging": ("AlarmEvent", "Debounce", "Verdict", "classify"),
    "config": ("ChordSpec", "DecisionBoundary", "EntropyParams", "FitResult", "FpcfPolynomial",
               "RunConfig", "default_config", "load_config", "parse_config"),
    "errors": ("ConfigError", "DegenerateProfileError", "DryPathError", "InvalidTimesError",
               "OutOfRangeError", "PartialFlowError", "QuadratureError"),
    "fpcf": ("fit_polynomial", "fpcf", "mean_area_velocity", "mean_chord_velocity",
             "tabulate_fpcf"),
    "geometry": ("PipeGeometry", "WaterLevel", "chord_half_width", "reynolds", "segment_area"),
    "measurement": ("ChordReading", "EstimateStatus", "FrameDiagnostic", "SensorFrame",
                    "line_velocity", "process_lines", "write_frame_rows"),
    "profile": ("DipPositionPoly", "ProfileModel", "ProfilePoint", "normalized_velocity",
                "profile_grid"),
    "quadrature": ("QuadratureSpec", "adaptive_integrate"),
    "simulator": ("ScenarioSpec", "WeirMode", "baseline_level_mm", "chord_velocity_from_truth",
                  "generate", "transit_times", "weir_shift"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Keeps ``partialflow.fpcf`` the function: importing a submodule binds it on the
    package under its own name, which would hide an exported name it shares."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
