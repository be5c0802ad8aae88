import io
import math

import pytest

from partialflow import (
    EntropyParams,
    PipeGeometry,
    fit_polynomial,
    process_lines,
    tabulate_fpcf,
    write_frame_rows,
)

# Independently derived degree-6 correction polynomial for the same
# 250 mm rig (coefficients c0..c6 over level in mm, valid 50..250 mm).
# Used as the cross-check reference in the acceptance suite.
RIG_REFERENCE_FPCF_COEFFS = (
    6.03e-1,
    1.24e-2,
    -1.81e-4,
    1.24e-6,
    -1.96e-9,
    -1.35e-11,
    4.22e-14,
)


def rig_reference_fpcf(level_mm: float) -> float:
    acc = 0.0
    for c in reversed(RIG_REFERENCE_FPCF_COEFFS):
        acc = acc * level_mm + c
    return acc


def process_frames(frames, chords, poly, pipe, **kwargs) -> list:
    """Frame objects written as the frame CSV and estimated by ``process_lines``:
    its ``FrameChunk``s."""
    buf = io.StringIO()
    write_frame_rows(frames, buf)
    buf.seek(0)
    return list(process_lines(buf, chords, poly, pipe, **kwargs))


@pytest.fixture(scope="session")
def pipe() -> PipeGeometry:
    return PipeGeometry(0.250)


@pytest.fixture(scope="session")
def params() -> EntropyParams:
    return EntropyParams()


@pytest.fixture(scope="session")
def default_chord_kwargs():
    angle = math.radians(45.0)
    return dict(height_mm=50.0, path_length_m=0.2 / math.sin(angle), beam_angle_rad=angle)


@pytest.fixture(scope="session")
def fpcf_table(pipe, params):
    """The 21-sample tabulation (50..250 mm, 10 mm step, chord at 50 mm)."""
    return tabulate_fpcf(pipe, params, 50.0)


@pytest.fixture(scope="session")
def full_range_fit(fpcf_table):
    return fit_polynomial(fpcf_table)


@pytest.fixture(scope="session")
def operating_fit(fpcf_table):
    """Fit restricted to the smooth operating band of the rig (50..180 mm)."""
    return fit_polynomial([s for s in fpcf_table if s.level_mm <= 180.0])
