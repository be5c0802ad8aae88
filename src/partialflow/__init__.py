"""Transit-time ultrasonic flow measurement for partially filled pipes.

Library layers: circular-segment geometry, the entropy-based normalized
velocity profile, the flow profile correction factor (quadrature,
tabulation, polynomial fit), transit-time flow estimation, calibration
and error metrics, clogging detection, and a synthetic flow-loop
simulator. The :mod:`partialflow.cli` module wires them into a CLI.
"""

import os
import sys

# numpy's OpenBLAS starts a second thread at load that spins idle: ~0.13 s of CPU per
# command on a 2-vCPU host, for BLAS calls too small to use it. OpenBLAS reads the count
# only at load, so the variable is removed again and no child process inherits it.
if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .calibration import (
    ErrorTable,
    TrialRecord,
    calibration_factor,
    error_table,
    fwme,
    percent_error,
    repeatability,
)
from .clogging import AlarmEvent, AlarmState, DecisionBoundary, Verdict, classify, step_alarm
from .config import RunConfig, default_config, load_config, parse_config
from .errors import (
    ConfigError,
    DegenerateProfileError,
    DryPathError,
    FpcfRangeError,
    InvalidTimesError,
    NumericalDomainError,
    OutOfRangeError,
    PartialFlowError,
    QuadratureError,
)
from .fpcf import (
    FitResult,
    FpcfPolynomial,
    FpcfSample,
    eval_fpcf,
    fit_polynomial,
    fpcf,
    mean_area_velocity,
    mean_chord_velocity,
    tabulate_fpcf,
)
from .geometry import (
    PipeGeometry,
    WaterLevel,
    chord_half_width,
    hydraulic_diameter,
    reynolds,
    segment_area,
    wetted_angle,
    wetted_perimeter,
)
from .measurement import (
    ChordReading,
    ChordSpec,
    EstimateStatus,
    FlowEstimate,
    FrameDiagnostic,
    ProcessedFrame,
    SensorFrame,
    estimate_flow,
    line_velocity,
    process_stream,
    read_frame_rows,
    write_frame_rows,
)
from .profile import (
    DipPositionPoly,
    EntropyParams,
    ProfileModel,
    ProfilePoint,
    dip_ratio,
    evaluate_velocity,
    local_frame,
    normalized_velocity,
    profile_grid,
    velocity_cdf,
)
from .quadrature import QuadratureSpec, adaptive_integrate
from .simulator import (
    ScenarioSpec,
    WeirMode,
    baseline_level_mm,
    chord_velocity_from_truth,
    generate,
    transit_times,
    weir_shift,
)

__version__ = "0.1.0"
