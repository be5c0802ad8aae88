"""The benchmark's output checks, run once per workload: ``bench/run.py`` checks every
output of every command it runs, and a pass that gives a wrong or failed output fails
here rather than first in a benchmark run. No metric value is asserted."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_each_workload_passes_the_benchmark_checks():
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
                          "--seed", "3", "--seconds", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(results) == 3, out.stdout
    for result in results:
        assert (result["correct"], result["failed"]) == (True, 0), out.stderr
        assert result["attempted"] > 0
