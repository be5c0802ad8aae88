"""Self-tests of the benchmark (not of the program).

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py

They take about half a minute: one traced pass of every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

# Per-layer metrics that must read non-zero on the workload named for them,
# so that a renamed function fails here instead of reading zero there.
LAYER_WORKLOAD = {
    "stream": [
        "measurement.parse_us_per_frame", "measurement.estimate_us_per_frame",
        "measurement.stream_us_per_frame", "geometry.calls", "geometry.self_s",
        "fpcf.eval_calls", "fpcf.eval_us", "clogging.us_per_frame",
        "clogging.alarms_raised", "clogging.alarms_cleared", "cli.format_us_per_frame",
        "cli.import_s", "config.self_s", "calibration.calls", "calibration.self_s",
        "accuracy.flow_err_max_pct", "trace.overhead_frac",
    ],
    "derive": [
        "profile.calls", "profile.points", "profile.points_per_call",
        "profile.points_per_s", "profile.self_s", "quadrature.calls",
        "quadrature.integrand_calls", "quadrature.points", "quadrature.self_s",
        "fpcf.area_mean_calls", "fpcf.chord_mean_calls", "fpcf.area_mean_s",
        "fpcf.table_s", "fpcf.fit_s", "fpcf.area_mean_reuse", "fpcf.max_err_vs_ref",
        "config.self_s",
    ],
    "simulate": [
        "simulator.points", "simulator.generate_s", "measurement.write_us_per_frame",
        "profile.points", "fpcf.area_mean_calls", "fpcf.area_mean_reuse",
        "geometry.calls",
    ],
}


@pytest.fixture
def workdir(request):
    path = run.WORK / f"selftest-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(LAYER_WORKLOAD))
def test_layers_record_spans_on_their_workload(name, workdir):
    tally = checks.Tally()
    metrics = run.trace(run.Workload(name, 3, workdir), 0.0, workdir, tally)
    assert set(metrics) == set(run.PER_LAYER)
    zero = [key for key in LAYER_WORKLOAD[name] if not metrics[key] > 0]
    assert not zero, f"layers read zero on {name}: {zero}"
    assert tally.wrong == 0, tally.notes


def test_diagnostics_and_quadrature_failures_are_counted(workdir):
    import tracing
    from partialflow.errors import QuadratureError
    from partialflow.quadrature import QuadratureSpec

    frames = workdir / "bad.csv"
    frames.write_text(
        "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm\n"
        "0.0,a,191099.0,191120.0,100.0\n"
        "1.0,a,191099.0\n"
        "2.0,a,191099.0,191120.0,100.0\n",
        encoding="utf-8",
    )
    runner = run.InProcessRunner(workdir)
    quadrature = sys.modules["partialflow.quadrature"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner(["process", "--frames", str(frames)])
        with pytest.raises(QuadratureError):
            quadrature.adaptive_integrate(lambda x: x * 0.0 + 1.0 / (x + 1e-300), 0.0, 1.0,
                                          QuadratureSpec(rel_tol=1e-15, max_depth=2))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, lambda h: 1.0)
    assert metrics["measurement.diagnostics"] == 1
    assert metrics["quadrature.failed"] == 1


def test_corrupted_flow_is_counted_as_failed(workdir):
    workload = run.Workload("stream", 5, workdir)
    p = workload.run_pass(run.InProcessRunner(workdir))
    tally = checks.Tally()
    workload.check(p, tally)
    assert tally.wrong == 0, tally.notes
    assert tally.attempted == len(workload.log.frames)
    # The injected dropouts come out as `ok` with q=nan at the time of
    # writing; whatever the program does with them, none may pass silently.
    assert tally.failed <= len(workload.log.bad)

    text = p.commands[0].text
    index = next(i for i in range(len(workload.log.frames)) if i not in workload.log.bad)
    ts = workload.log.frames[index][0]
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"frame ts={ts!r} "))
    fields = dict(tok.split("=", 1) for tok in lines[at].split()[1:])
    q = float(fields["q_lps"])
    lines[at] = lines[at].replace(f"q_lps={fields['q_lps']}", f"q_lps={q * (1 + 1e-6)!r}")
    corrupted = checks.parse_process_output("\n".join(lines) + "\n")
    again = checks.Tally()
    checks.check_frames(corrupted, workload.log, again, coeffs=workload.coeffs)
    assert again.failed == tally.failed + 1
    assert again.wrong == 1

    silent = checks.parse_process_output(
        "".join(line + "\n" for line in text.splitlines() if not line.startswith("alarm ")))
    quiet = checks.Tally()
    checks.check_frames(silent, workload.log, quiet, coeffs=workload.coeffs)
    # every weir segment is reported, and the summary's alarm counts
    weir_segments = sum(seg.weir != "none" for seg in workload.log.segments)
    assert quiet.wrong == weir_segments + 1


def test_corrupted_simulate_output_is_counted_as_failed(workdir):
    workload = run.Workload("simulate", 5, workdir)
    point = next(p for p in workload.points if p.noise_ns == 0.0)
    command = run.InProcessRunner(workdir)(point.argv())
    tally = checks.Tally()
    checks.check_simulate(command.text, point, workload.table, tally)
    assert (tally.failed, tally.wrong) == (0, 0), tally.notes

    lines = command.text.splitlines()
    ts, chord, t_up, t_down, level = lines[5].split(",")
    lines[5] = ",".join([ts, chord, repr(float(t_up) + 1.0), t_down, level])
    checks.check_simulate("\n".join(lines) + "\n", point, workload.table, tally)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_one_seed_gives_byte_identical_inputs(workdir):
    from partialflow.config import load_config

    config = load_config(str(reference.STREAM_CONFIG_PATH))
    first = inputs.stream_log(workdir / "a.csv", 9, config)
    second = inputs.stream_log(workdir / "b.csv", 9, config)
    other = inputs.stream_log(workdir / "c.csv", 10, config)
    assert first.path.read_bytes() == second.path.read_bytes()
    assert first.path.read_bytes() != other.path.read_bytes()
    assert first.bad == second.bad and first.bad
    assert inputs.simulate_points(9) == inputs.simulate_points(9)


def test_stored_reference_matches_c05():
    table = reference.load_table()
    value = dict(table)[reference.C05_LEVEL_MM]
    assert abs(value - reference.C05_VALUE) <= reference.C05_TOL


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert result.stdout == ""
