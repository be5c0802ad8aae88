"""Importing partialflow loads numpy with a one-thread OpenBLAS pool, unless the
user set a thread count or imported numpy first, and leaves ``os.environ`` as
it found it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Prints the thread count and whether os.environ changed, then the fpcf table.
PROBE = """
import json, os, sys
{first}
before, threads = dict(os.environ), len(os.listdir("/proc/self/task"))
import partialflow.cli
print(json.dumps([threads, len(os.listdir("/proc/self/task")), dict(os.environ) == before,
                  os.environ.get("OPENBLAS_NUM_THREADS")]), flush=True)
sys.exit(partialflow.cli.main(["fpcf", "--step", "20"]))
"""


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _cpus() < 2,
    reason="needs /proc/self/task and at least 2 CPUs",
)


@pytest.fixture(scope="module")
def children():
    """Three interpreters run side by side: no thread variable, a user's
    OPENBLAS_NUM_THREADS=2, and numpy imported before partialflow."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    runs = {
        "pinned": (base, ""),
        "user": ({**base, "OPENBLAS_NUM_THREADS": "2"}, ""),
        "numpy_first": (base, "import numpy"),
    }
    procs = {
        name: subprocess.Popen([sys.executable, "-c", PROBE.format(first=first)], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, (env, first) in runs.items()
    }
    results = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            probe, table = out.split("\n", 1)
            results[name] = (*json.loads(probe), table)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return results


def test_pool_is_pinned_and_environ_restored(children):
    before, after, environ_kept, openblas, _ = children["pinned"]
    assert (before, after) == (1, 1)
    assert environ_kept and openblas is None


def test_user_thread_count_is_kept(children):
    _, _, environ_kept, openblas, _ = children["user"]
    assert environ_kept and openblas == "2"


def test_numpy_imported_first_is_left_alone(children):
    before, after, environ_kept, openblas, _ = children["numpy_first"]
    assert after == before and environ_kept and openblas is None


def test_output_does_not_depend_on_the_pool(children):
    table = children["pinned"][-1]
    assert table.startswith("H_mm,fpcf\n") and len(table.splitlines()) == 12
    assert table == children["user"][-1]
