"""Start-up and exit: no command needs numpy, each runs the same in a child where
importing numpy fails, and none loads ``dataclasses``. The program freezes the heap
before it exits; an in-process ``main`` call does not."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Prints whether numpy, dataclasses, numpy.polynomial, numpy.random, secrets and
# _hashlib are loaded after the package import and after each of calibrate, metrics,
# --help, process, a noisy simulate, fpcf and a process that derives its polynomial, the
# exit codes of the last four, the number of loaded modules at each write of frame
# records by the first process command, and the package modules loaded by calibrate,
# metrics and --help.
LAZY_PROBE = """
import contextlib, io, json, sys
trials, frames, derive, step20 = sys.argv[1:]

def loaded():
    return [name in sys.modules for name in ("numpy", "dataclasses", "numpy.polynomial",
                                             "numpy.random", "secrets", "_hashlib")]

import partialflow
stages = [loaded()]
import partialflow.cli
for argv in (["calibrate", "--trials", trials], ["metrics", "--trials", trials], ["--help"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        partialflow.cli.main(argv)
    stages.append(loaded())
layers = sorted(name for name in sys.modules if name.startswith("partialflow"))

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
for argv in (["fpcf", "--config", step20], ["process", "--config", derive, "--frames", frames]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(partialflow.cli.main(argv))
    stages.append(loaded())
print(json.dumps([stages, codes, modules, layers]))
"""


def _base_env() -> dict:
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, base.get("PYTHONPATH")]))
    return base


def _step20(tmp_path_factory) -> str:
    """A config whose only keys make fpcf tabulate 50-250 mm in steps of 20."""
    cfg = tmp_path_factory.mktemp("fpcf") / "step20.cfg"
    cfg.write_text("fpcf.h_min_mm = 50\nfpcf.h_max_mm = 250\nfpcf.step_mm = 20\n",
                   encoding="utf-8")
    return str(cfg)


# Imports every module of the package, then prints whether numpy is loaded.
IMPORT_PROBE = """
import importlib, pkgutil, sys
import partialflow
names = [m.name for m in pkgutil.iter_modules(partialflow.__path__, "partialflow.")]
for name in names:
    importlib.import_module(name)
print(len(names), "numpy" in sys.modules)
"""


def test_importing_every_module_loads_no_numpy():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_base_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "12 False\n"


# Runs ``python -m partialflow.cli`` with the command line after ``-c`` in an interpreter
# where ``import numpy`` raises ImportError.
NO_NUMPY_PROBE = """
import runpy, sys
sys.modules["numpy"] = None
runpy.run_module("partialflow.cli", run_name="__main__", alter_sys=True)
"""

COEFFS = "".join(f"fpcf.c{k} = {c!r}\n" for k, c in
                 enumerate((0.603, 0.0124, -1.81e-4, 1.24e-6, -1.96e-9, 0.0, 0.0)))


def _without_numpy(runs: dict) -> dict:
    """(exit code, stdout, stderr) of each run's command line, run side by side under
    NO_NUMPY_PROBE."""
    procs = {name: subprocess.Popen([sys.executable, "-c", NO_NUMPY_PROBE, *argv],
                                    env=_base_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
             for name, argv in runs.items()}
    results = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            results[name] = (proc.returncode, out, err)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return results


def test_no_command_needs_numpy(tmp_path, capsys):
    """Every command runs, and writes what it writes in this process, where numpy can be
    imported: the FPCF table, its fit, the profile grid and the derived polynomial are
    plain floats too."""
    from partialflow.cli import main

    coeffs, derive, trials = tmp_path / "coeffs.cfg", tmp_path / "derive.cfg", tmp_path / "t.csv"
    coeffs.write_text(COEFFS)
    derive.write_text("fpcf.derive = true\n")
    trials.write_text("1,2.0,2.0,2.02\n1,4.0,4.0,4.05\n2,4.0,4.0,4.01\n")
    frames, table = tmp_path / "frames.csv", tmp_path / "table.csv"
    assert main(["simulate", "--flow-lps", "3", "--frames", "50", "--noise-ns", "1",
                 "--seed", "3", "--out", str(frames)]) == 0
    assert main(["fpcf", "--out", str(table)]) == 0
    runs = {
        "help": ["--help"],
        "simulate": ["simulate", "--flow-lps", "3", "--noise-ns", "1", "--frames", "5"],
        "process_stored": ["process", "--config", str(coeffs), "--frames", str(frames)],
        "process_none": ["process", "--frames", str(frames)],
        "process_derived": ["process", "--config", str(derive), "--frames", str(frames)],
        "fpcf": ["fpcf"],
        "fit": ["fit", "--table", str(table)],
        "profile": ["profile", "--level-mm", "82.5", "--nx", "5", "--ny", "4"],
        "calibrate": ["calibrate", "--trials", str(trials)],
        "metrics": ["metrics", "--trials", str(trials), "--k-cal", "0.99"],
    }
    expected = {}
    capsys.readouterr()
    for name, argv in runs.items():
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        expected[name] = (code, capsys.readouterr().out, "")
    assert _without_numpy(runs) == expected
    assert all(code == 0 and out for code, out, _ in expected.values())


def test_simulate_loads_no_numpy(tmp_path):
    """One FPCF per chord height is integrated point by point in plain floats; every
    simulate scenario runs where numpy cannot be imported."""
    coeffs, heights = tmp_path / "coeffs.cfg", tmp_path / "heights.cfg"
    coeffs.write_text(COEFFS)
    heights.write_text("chord.a.height_mm = 50\nchord.b.height_mm = 30\n")
    runs = {
        "noise_free": ["--flow-lps", "3"],
        "noisy": ["--flow-lps", "3", "--noise-ns", "2", "--seed", "5", "--frames", "50"],
        "weir2": ["--flow-lps", "4", "--weir", "weir2", "--frames", "10"],
        "zero_flow": ["--flow-lps", "0", "--level-mm", "80"],
        "level": ["--flow-lps", "2", "--level-mm", "140"],
        "coefficients": ["--flow-lps", "3", "--config", str(coeffs)],
        "two_heights": ["--flow-lps", "3", "--config", str(heights)],
    }
    results = {name: (code, out.startswith("timestamp_s,chord_id,"), err) for name, (code, out, err)
               in _without_numpy({k: ["simulate", *argv] for k, argv in runs.items()}).items()}
    assert results == {name: (0, True, "") for name in runs}


def test_process_loads_no_numpy(tmp_path):
    """Frames are read and estimated in plain floats, and fpcf.derive = true tabulates
    and fits the polynomial in plain floats: no process run imports numpy."""
    from partialflow.cli import main

    coeffs, derive = tmp_path / "coeffs.cfg", tmp_path / "derive.cfg"
    coeffs.write_text(COEFFS)
    derive.write_text("fpcf.derive = true\n")
    frames, bad = tmp_path / "frames.csv", tmp_path / "bad.csv"
    assert main(["simulate", "--flow-lps", "3", "--frames", "300", "--noise-ns", "1",
                 "--seed", "3", "--out", str(frames)]) == 0
    lines = frames.read_text().splitlines(True)
    for k, (up, down) in enumerate([("nan", None), (None, "inf"), ("nan", "nan")], start=5):
        ts, chord, t_up, t_down, level = lines[k].split(",")
        lines[k] = f"{ts},{chord},{up or t_up},{down or t_down},{level}"
    bad.write_text("".join(lines) + "nan,a,1,2,3\n")
    runs = {
        "coefficients": ["--config", str(coeffs), "--frames", str(frames)],
        "uncorrected": ["--frames", str(frames)],
        "nan_rows": ["--config", str(coeffs), "--frames", str(bad)],
        "derive": ["--config", str(derive), "--frames", str(frames)],
    }
    results = {name: (code, err, "diagnostic line=" in out, out.endswith(" alarms=0 clears=0\n"))
               for name, (code, out, err)
               in _without_numpy({k: ["process", *argv] for k, argv in runs.items()}).items()}
    assert results == {name: (0, "", name == "nan_rows", True) for name in runs}


@pytest.fixture(scope="module")
def lazy_child(tmp_path_factory):
    from partialflow.cli import main

    tmp = tmp_path_factory.mktemp("lazy")
    trials, frames, derive = tmp / "trials.csv", tmp / "frames.csv", tmp / "derive.cfg"
    trials.write_text("1,2.0,2.0,2.02\n1,4.0,4.0,4.05\n", encoding="utf-8")
    derive.write_text("fpcf.derive = true\n", encoding="utf-8")
    # 2 chords x 400 frames: 400 frame records, each written as it comes.
    assert main(["simulate", "--flow-lps", "3", "--frames", "400", "--out", str(frames)]) == 0
    out = subprocess.run([sys.executable, "-c", LAZY_PROBE, str(trials), str(frames), str(derive),
                          _step20(tmp_path_factory)],
                         env=_base_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_package_calibrate_metrics_and_help_load_no_numpy(lazy_child):
    """Nor do process, simulate, fpcf or a derived process, in one interpreter."""
    stages, codes, _, _ = lazy_child
    assert [stage[0] for stage in stages] == [False] * 8
    assert codes == [0, 0, 0, 0]


def test_calibrate_and_metrics_load_only_their_layers(lazy_child):
    """The trial CSV is read and checked by calibration alone; clogging is process's."""
    _, _, _, layers = lazy_child
    assert layers == ["partialflow", "partialflow._record", "partialflow.calibration",
                      "partialflow.cli", "partialflow.errors"]


def test_no_command_loads_dataclasses(lazy_child):
    """Records are built without dataclasses, which would cost ~1 ms per class."""
    stages, _, _, _ = lazy_child
    assert [stage[1] for stage in stages] == [False] * 8


def test_no_command_loads_numpy_polynomial(lazy_child):
    """The Gauss-Legendre nodes are computed without numpy.polynomial, whose six basis
    modules cost ~4.5 ms to load."""
    stages, _, _, _ = lazy_child
    assert [stage[2] for stage in stages] == [False] * 8


def test_no_command_loads_numpy_random(lazy_child):
    """Noisy simulate draws its jitter with the standard library's ``random``;
    numpy.random, with the secrets and _hashlib it imports, cost ~6 MB of peak RSS and
    ~14 ms of CPU over numpy itself."""
    stages, _, _, _ = lazy_child
    assert [stage[3:] for stage in stages] == [[False] * 3] * 8


def test_process_imports_nothing_between_frame_records(lazy_child):
    _, codes, modules, _ = lazy_child
    assert codes[0] == 0 and len(modules) == 400
    assert len(set(modules)) == 1


# Imports partialflow.config, runs the command line after ``-c`` through ``main`` if one
# is given, and prints the package modules then loaded.
GRAPH_PROBE = """
import contextlib, io, json, sys
import partialflow.config
if sys.argv[1:]:
    import partialflow.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert partialflow.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("partialflow"))))
"""


def _graph(*argv) -> list:
    out = subprocess.run([sys.executable, "-c", GRAPH_PROBE, *argv], env=_base_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_process_loads_only_the_run_time_layers(tmp_path):
    """A run applies a stored polynomial, or none, per frame: config holds the values it
    reads, and the profile, quadrature and FPCF layers that derive a polynomial stay
    unloaded."""
    from partialflow.cli import main

    coeffs, frames = tmp_path / "coeffs.cfg", tmp_path / "frames.csv"
    coeffs.write_text(COEFFS, encoding="utf-8")
    assert main(["simulate", "--flow-lps", "3", "--frames", "20", "--out", str(frames)]) == 0
    run_time = ["partialflow", *(f"partialflow.{layer}" for layer in (
        "_record", "calibration", "cli", "clogging", "config", "errors", "geometry",
        "measurement"))]
    assert _graph("process", "--config", str(coeffs), "--frames", str(frames)) == run_time
    assert _graph("process", "--frames", str(frames)) == run_time


def test_config_import_loads_no_fpcf_stack():
    """Every run record lives in config, which loads no frame, alarm or FPCF layer."""
    assert _graph() == ["partialflow", *(f"partialflow.{layer}" for layer in (
        "_record", "calibration", "config", "errors", "geometry"))]


@pytest.mark.parametrize("argv", [["fpcf"], ["fit", "--table", None],
                                  ["profile", "--level-mm", "100"]], ids=["fpcf", "fit", "profile"])
def test_design_commands_load_no_frame_or_alarm_layer(argv, tmp_path):
    """The FPCF table, its fit and the profile grid read config's records, not the frame
    layer (measurement) or the alarm layer (clogging)."""
    from partialflow.cli import main

    table = tmp_path / "table.csv"
    assert main(["fpcf", "--out", str(table)]) == 0
    loaded = _graph(*(arg or str(table) for arg in argv))
    assert "partialflow.fpcf" in loaded
    assert not {"partialflow.measurement", "partialflow.clogging"} & {*loaded}


# Runs the program the way ``python -m partialflow.cli`` does, or the way the
# ``partialflow`` script calls its pyproject.toml target, with the command line after
# ``-c``; at exit it reports the freeze count on stderr.
EXIT_PROBE = """
import atexit, gc, importlib, runpy, sys
atexit.register(lambda: print(f"frozen={{gc.get_freeze_count()}}", file=sys.stderr))
if {target!r}:
    module, name = {target!r}.split(":")
    sys.argv[0] = "partialflow"
    sys.exit(getattr(importlib.import_module(module), name)())
runpy.run_module("partialflow.cli", run_name="__main__", alter_sys=True)
"""
SIMULATE = ["simulate", "--flow-lps", "3", "--frames", "20", "--noise-ns", "0.5", "--seed", "4"]


def _script_target() -> str:
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^partialflow = "([\w.]+:\w+)"$', text, re.M).group(1)


@pytest.fixture(scope="module")
def exits(tmp_path_factory):
    """Children side by side: the simulate command through both probes, and four
    ``python -m partialflow.cli`` commands that exit 0, 1, 2 and 3."""
    from partialflow.cli import main

    tmp = tmp_path_factory.mktemp("exits")
    trials, debounce, weir2 = tmp / "trials.csv", tmp / "debounce.cfg", tmp / "weir2.csv"
    trials.write_text("1,2,2.0,2.02\n1,4,4.0,4.05\n2,4,4.0,nan\n", encoding="utf-8")
    debounce.write_text("clog.debounce = 0\n", encoding="utf-8")
    assert main(["simulate", "--flow-lps", "3", "--weir", "weir2", "--frames", "8",
                 "--out", str(weir2)]) == 0
    module = [sys.executable, "-m", "partialflow.cli"]
    runs = {
        "module": [sys.executable, "-c", EXIT_PROBE.format(target=""), *SIMULATE],
        "script": [sys.executable, "-c", EXIT_PROBE.format(target=_script_target()), *SIMULATE],
        0: [*module, *SIMULATE],
        1: [*module, "metrics", "--trials", str(trials)],
        2: [*module, "process", "--config", str(debounce), "--frames", str(weir2)],
        3: [*module, "process", "--fail-on-alarm", "--frames", str(weir2)],
    }
    procs = {name: subprocess.Popen(argv, env=_base_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
             for name, argv in runs.items()}
    results = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            results[name] = (proc.returncode, out, err)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return results


@pytest.mark.parametrize("launch", ["module", "script"])
def test_program_freezes_the_heap_before_exit(exits, launch):
    code, out, err = exits[launch]
    assert code == 0 and out.startswith("timestamp_s,chord_id,")
    frozen = re.fullmatch(r"frozen=(\d+)\n", err)
    assert frozen and int(frozen.group(1)) > 0, err


def test_main_in_process_does_not_freeze(capsys):
    from partialflow.cli import main

    before = gc.get_freeze_count()
    assert main(SIMULATE) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out.startswith("timestamp_s,chord_id,")


def test_program_output_matches_main_in_process(exits, capsys):
    from partialflow.cli import main

    assert main(SIMULATE) == 0
    in_process = capsys.readouterr()
    assert exits[0] == (0, in_process.out, in_process.err)
    assert exits["script"][1] == exits["module"][1] == in_process.out


@pytest.mark.parametrize("code,err", [
    (1, "error: trial CSV line 3: measured flow must be finite"),
    (2, "config error: clog.debounce must be >= 1"),
    (3, None),
], ids=["bad_input", "bad_config", "alarm"])
def test_program_exit_codes(exits, code, err):
    got, out, stderr = exits[code]
    assert got == code
    if code == 3:
        assert stderr == "" and out.endswith(" alarms=1 clears=0\n")
    else:
        assert out == "" and stderr.startswith(err)


@pytest.mark.parametrize("frames,lines_read", [(20000, 1), (20, 0)],
                         ids=["mid_stream", "last_flush"])
def test_closed_reader_ends_the_program_quietly(frames, lines_read):
    # as ``partialflow simulate ... | head -1`` this printed "error: [Errno 32] Broken
    # pipe" and exited 1, the code of invalid input; 20 frames fit in the output buffer,
    # so the reader, gone before the child starts, is met at the last flush
    proc = subprocess.Popen([sys.executable, "-m", "partialflow.cli", "simulate", "--flow-lps",
                             "3", "--frames", str(frames)], env=_base_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"timestamp_s,")
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_script_and_module_share_one_entry():
    """pyproject.toml's script target is the function ``python -m`` calls."""
    import ast

    from partialflow import cli

    module, name = _script_target().split(":")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (guard,) = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(guard) == f"if __name__ == '__main__':\n    {name}()"
    assert module == "partialflow.cli" and callable(getattr(cli, name))
