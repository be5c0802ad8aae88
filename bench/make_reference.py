"""Regenerate the benchmark's stored reference data.

Writes two files under ``bench/data``:

- ``fpcf_tight.csv``: the correction factor for the default 250 mm rig
  (chord at 50 mm) from 50 to 250 mm in 2.5 mm steps, computed with the
  program's quadrature at ``rel_tol = 1e-9``, 10^3 times tighter than the
  run-time default. The benchmark checks program output against it.
- ``stream.cfg``: the run configuration of the ``stream`` workload, a
  degree-6 polynomial fitted to that table over the 50-180 mm operating
  band (10 mm steps), so ``process`` runs without deriving.

The stored files are inputs of the benchmark, not outputs of the program
under test, so they are regenerated only on purpose (about two minutes)::

    PYTHONPATH=src python3 bench/make_reference.py
"""

import sys
from pathlib import Path

from partialflow import EntropyParams, PipeGeometry, ProfileModel, WaterLevel, fpcf
from partialflow.quadrature import QuadratureSpec

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402

TIGHT = QuadratureSpec(rel_tol=1e-9)


def main() -> None:
    pipe = PipeGeometry(0.250)
    params = EntropyParams()
    rows = []
    for k in range(81):
        level_mm = 50.0 + 2.5 * k
        model = ProfileModel(pipe=pipe, level=WaterLevel(level_mm / 1000.0), params=params)
        value = fpcf(model, reference.CHORD_HEIGHT_MM / 1000.0, TIGHT)
        rows.append((level_mm, value))
        print(f"{level_mm:6.1f} {value!r}", file=sys.stderr)
    with open(reference.TABLE_PATH, "w", encoding="utf-8") as fh:
        fh.write("H_mm,fpcf\n")
        for level_mm, value in rows:
            fh.write(f"{level_mm!r},{value!r}\n")

    table = reference.load_table()
    coeffs = reference.fit_coeffs(table, 50.0, 180.0)
    lines = ["# stream workload: degree-6 FPCF fitted to fpcf_tight.csv over 50-180 mm"]
    lines += [f"fpcf.c{k} = {c!r}" for k, c in enumerate(coeffs)]
    lines += ["fpcf.h_min_mm = 50.0", "fpcf.h_max_mm = 180.0"]
    with open(reference.STREAM_CONFIG_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
