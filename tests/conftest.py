import io
import math

import pytest

from partialflow import (
    EntropyParams,
    RunConfig,
    default_config,
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


def process_frames(frames, chords, pipe, **kwargs) -> list:
    """Frame objects written as the frame CSV and estimated by ``process_lines``: its
    ``Frame`` and ``FrameDiagnostic`` records. ``kwargs`` are ``RunConfig`` fields
    (``poly``, ``k_cal``...)."""
    buf = io.StringIO()
    write_frame_rows(frames, buf)
    buf.seek(0)
    config = RunConfig(pipe=pipe, params=EntropyParams(), chords=tuple(chords), **kwargs)
    return list(process_lines(buf, config))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_by_record(items) -> str:
    """``process`` output as the per-frame formatter wrote it, one f-string per record,
    from the records of ``process_lines``: the oracle for the templates of ``process``."""
    from partialflow.clogging import Verdict
    from partialflow.measurement import FrameDiagnostic

    out, frames_seen, diagnostics, raised, cleared = [], 0, 0, 0, 0
    for item in items:
        if isinstance(item, FrameDiagnostic):
            diagnostics += 1
            where = f" line={item.line_no}" if item.line_no is not None else ""
            ts = f" ts={_fmt(item.timestamp_s)}" if item.timestamp_s is not None else ""
            out.append(f"diagnostic{where}{ts} detail={item.detail!r}\n")
            continue
        frames_seen += 1
        ts, level, v, area, fpcf, flow, status, clog, event = item
        judged = clog is not None
        verdict = (Verdict.CLOGGING if clog else Verdict.NORMAL) if judged else None
        out.append(
            f"frame ts={ts!r} level_mm={level!r} v_line_mps={_fmt(v if judged else None)}"
            f" area_m2={area!r} fpcf={fpcf!r}"
            f" q_lps={repr(1000.0 * flow) if judged else '-'}"
            f" status={status.value} clog={verdict.value if verdict else '-'}\n"
        )
        if event is not None:
            if event.value == "raised":
                raised += 1
            else:
                cleared += 1
            out.append(f"alarm ts={ts!r} event={event.value}"
                       f" level_mm={level!r} v_line_mps={v!r}\n")
    out.append(f"summary frames={frames_seen} diagnostics={diagnostics}"
               f" alarms={raised} clears={cleared}\n")
    return "".join(out)


@pytest.fixture(scope="session")
def default_chord_kwargs():
    angle = math.radians(45.0)
    return dict(height_mm=50.0, path_length_m=0.2 / math.sin(angle), beam_angle_rad=angle)


@pytest.fixture(scope="session")
def fpcf_table():
    """The default config's table: 21 (level_mm, fpcf) pairs from 50 to 250 mm, 10 mm
    apart, chord at 50 mm."""
    return tabulate_fpcf(default_config())


@pytest.fixture(scope="session")
def full_range_fit(fpcf_table):
    return fit_polynomial(fpcf_table)


@pytest.fixture(scope="session")
def operating_fit(fpcf_table):
    """Fit restricted to the smooth operating band of the rig (50..180 mm)."""
    return fit_polynomial([(h, value) for h, value in fpcf_table if h <= 180.0])
