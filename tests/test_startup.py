"""Start-up: a command loads numpy only if it runs a layer that uses it, and then
with a one-thread OpenBLAS pool, unless the user set a thread count or imported
numpy first; ``os.environ`` is left as it was found. No command loads ``dataclasses``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs the fpcf command (which loads numpy), then prints the thread counts before
# and after it and whether os.environ changed.
POOL_PROBE = """
import json, os, sys
{first}
before, threads = dict(os.environ), len(os.listdir("/proc/self/task"))
import partialflow.cli
code = partialflow.cli.main(["fpcf", "--step", "20"])
print(json.dumps([threads, len(os.listdir("/proc/self/task")), dict(os.environ) == before,
                  os.environ.get("OPENBLAS_NUM_THREADS")]), flush=True)
sys.exit(code)
"""

# Prints whether numpy and dataclasses are loaded after the package import and
# after each of calibrate, metrics, --help, process and a noisy simulate, the exit
# codes of the last two, and the number of loaded modules at each write of frame
# records by the process command.
LAZY_PROBE = """
import contextlib, io, json, sys
trials, frames = sys.argv[1:]

def loaded():
    return ["numpy" in sys.modules, "dataclasses" in sys.modules]

import partialflow
stages = [loaded()]
import partialflow.cli
for argv in (["calibrate", "--trials", trials], ["metrics", "--trials", trials], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        partialflow.cli.main(argv)
    stages.append(loaded())

class Out(io.StringIO):
    def write(self, text):
        if "frame " in text:
            modules.append(len(sys.modules))
        return super().write(text)

modules = []
with contextlib.redirect_stdout(Out()):
    codes = [partialflow.cli.main(["process", "--frames", frames])]
stages.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(partialflow.cli.main(["simulate", "--flow-lps", "3", "--frames", "4",
                                       "--noise-ns", "2"]))
stages.append(loaded())
print(json.dumps([stages, codes, modules]))
"""


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _cpus() < 2,
    reason="needs /proc/self/task and at least 2 CPUs",
)


def _base_env() -> dict:
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    return base


@pytest.fixture(scope="module")
def children():
    """Three interpreters run side by side: no thread variable, a user's
    OPENBLAS_NUM_THREADS=2, and numpy imported before partialflow."""
    base = _base_env()
    runs = {
        "pinned": (base, ""),
        "user": ({**base, "OPENBLAS_NUM_THREADS": "2"}, ""),
        "numpy_first": (base, "import numpy"),
    }
    procs = {
        name: subprocess.Popen([sys.executable, "-c", POOL_PROBE.format(first=first)], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, (env, first) in runs.items()
    }
    results = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            table, probe = out.rstrip("\n").rsplit("\n", 1)
            results[name] = (*json.loads(probe), table + "\n")
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return results


@needs_threads
def test_pool_is_pinned_and_environ_restored(children):
    before, after, environ_kept, openblas, _ = children["pinned"]
    assert (before, after) == (1, 1)
    assert environ_kept and openblas is None


@needs_threads
def test_user_thread_count_is_kept(children):
    _, _, environ_kept, openblas, _ = children["user"]
    assert environ_kept and openblas == "2"


@needs_threads
def test_numpy_imported_first_is_left_alone(children):
    before, after, environ_kept, openblas, _ = children["numpy_first"]
    assert after == before and environ_kept and openblas is None


@needs_threads
def test_output_does_not_depend_on_the_pool(children):
    table = children["pinned"][-1]
    assert table.startswith("H_mm,fpcf\n") and len(table.splitlines()) == 12
    assert table == children["user"][-1]


@pytest.fixture(scope="module")
def lazy_child(tmp_path_factory):
    from partialflow.cli import main

    tmp = tmp_path_factory.mktemp("lazy")
    trials, frames = tmp / "trials.csv", tmp / "frames.csv"
    trials.write_text("1,2.0,2.0,2.02\n1,4.0,4.0,4.05\n", encoding="utf-8")
    # 2 chords x 400 frames: chunks of 256, 512 and 32 rows.
    assert main(["simulate", "--flow-lps", "3", "--frames", "400", "--out", str(frames)]) == 0
    out = subprocess.run([sys.executable, "-c", LAZY_PROBE, str(trials), str(frames)],
                         env=_base_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_package_calibrate_metrics_and_help_load_no_numpy(lazy_child):
    stages, codes, _ = lazy_child
    assert [numpy for numpy, _ in stages] == [False, False, False, False, True, True]
    assert codes == [0, 0]


def test_no_command_loads_dataclasses(lazy_child):
    """Records are built without dataclasses, which would cost ~1 ms per class."""
    stages, _, _ = lazy_child
    assert [dataclasses for _, dataclasses in stages] == [False] * 6


def test_process_imports_nothing_between_frame_records(lazy_child):
    _, codes, modules = lazy_child
    assert codes[0] == 0 and len(modules) == 3
    assert len(set(modules)) == 1
