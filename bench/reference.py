"""The benchmark's own closed forms and reference data.

Nothing here imports the program: output checks recompute flows and
correction factors independently, from the formulas the program documents
and from a stored tight-tolerance FPCF table.
"""

import math
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent / "data"
TABLE_PATH = DATA_DIR / "fpcf_tight.csv"
STREAM_CONFIG_PATH = DATA_DIR / "stream.cfg"

PIPE_DIAMETER_M = 0.250
CHORD_HEIGHT_MM = 50.0
BEAM_ANGLE_RAD = math.radians(45.0)
# Both default chords span the full bore width at 50 mm, crossing at 45 deg.
PATH_LENGTH_M = 2.0 * math.sqrt(0.125**2 - (0.050 - 0.125) ** 2) / math.sin(BEAM_ANGLE_RAD)

# Rig operating levels (simulator documentation): 2 L/s runs at 65 mm,
# 6 L/s at 100 mm, and a weir raises the level by a fixed share.
LEVEL_ANCHORS = ((2.0, 65.0), (6.0, 100.0))
WEIR_UPLIFT = {"none": 0.0, "weir1": 0.35, "weir2": 0.80}

# Acceptance value c05: FPCF at 125 mm.
C05_LEVEL_MM = 125.0
C05_VALUE = 1.12027
C05_TOL = 2e-5


def load_table(path: Path = TABLE_PATH) -> list[tuple[float, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            level, value = line.split(",")
            rows.append((float(level), float(value)))
    return rows


def interpolate(table: list[tuple[float, float]], level_mm: float) -> float:
    """Four-point Lagrange interpolation in the 2.5 mm table."""
    levels = [h for h, _ in table]
    if not levels[0] <= level_mm <= levels[-1]:
        raise ValueError(f"level {level_mm!r} mm outside the reference table")
    step = levels[1] - levels[0]
    i = min(max(int((level_mm - levels[0]) // step) - 1, 0), len(levels) - 4)
    nodes = table[i : i + 4]
    total = 0.0
    for j, (hj, vj) in enumerate(nodes):
        weight = 1.0
        for m, (hm, _) in enumerate(nodes):
            if m != j:
                weight *= (level_mm - hm) / (hj - hm)
        total += weight * vj
    return total


def fit_coeffs(table, h_min_mm: float, h_max_mm: float, step_mm: float = 10.0,
               degree: int = 6) -> tuple[float, ...]:
    """Least-squares power-basis coefficients over level in mm.

    Uses the table levels h_min, h_min + step, ..., h_max, fitted on H/H_max
    and rescaled, the procedure the program documents for its own fit.
    """
    picked = [
        (h, v) for h, v in table
        if h_min_mm - 1e-9 <= h <= h_max_mm + 1e-9
        and abs((h - h_min_mm) / step_mm - round((h - h_min_mm) / step_mm)) < 1e-9
    ]
    levels = np.array([h for h, _ in picked])
    values = np.array([v for _, v in picked])
    scale = float(levels.max())
    vander = np.vander(levels / scale, degree + 1, increasing=True)
    scaled, *_ = np.linalg.lstsq(vander, values, rcond=None)
    return tuple(float(c / scale**k) for k, c in enumerate(scaled))


def horner(coeffs, level_mm: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * level_mm + c
    return acc


def segment_area_m2(level_mm: float) -> float:
    d = PIPE_DIAMETER_M
    theta = 2.0 * math.acos(1.0 - 2.0 * (level_mm / 1000.0) / d)
    return d * d / 8.0 * (theta - math.sin(theta))


def line_velocity(t_up_ns: float, t_down_ns: float) -> float:
    t_up, t_down = t_up_ns * 1e-9, t_down_ns * 1e-9
    return PATH_LENGTH_M * (t_down - t_up) / (2.0 * t_up * t_down * math.cos(BEAM_ANGLE_RAD))


def flow_lps(fpcf: float, v_line: float, level_mm: float, k_cal: float = 1.0) -> float:
    """Q = k_cal * FPCF(H) * v_line * A(H), in L/s."""
    return 1000.0 * k_cal * fpcf * v_line * segment_area_m2(level_mm)


def operating_level_mm(flow: float, weir: str) -> float:
    (q0, h0), (q1, h1) = LEVEL_ANCHORS
    base = h0 + (h1 - h0) * (flow - q0) / (q1 - q0)
    return base * (1.0 + WEIR_UPLIFT[weir])
