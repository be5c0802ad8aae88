"""partialflow benchmark: the real CLI on seeded workloads, with checked output.

Usage, from the root of a checkout::

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one CLI command at a time, one client):

- ``stream``: ``process`` with a stored degree-6 polynomial over a 19,200
  frame log, then ``calibrate`` and ``metrics`` on trial rows built from
  the output segments. All work is per frame; no quadrature.
- ``derive``: ``process`` with ``fpcf.derive = true`` (21-level table plus
  fit at start-up) over a 3,600 frame log. Start-up dominates.
- ``simulate``: one ``simulate`` command per seeded operating point (flow x
  weir mode x noise 0 / 0.5 ns, 300 frames each). One FPCF at a scattered
  level per chord, and the frame CSV is written rather than read.

With ``--trace 0`` every command runs as a child process and the
end-to-end metrics are printed; apart from ``setup_s`` they are in units
of a fixed reference task (speed_ref.py) timed between passes. With
``--trace 1`` the same commands run in this process through
``partialflow.cli.main``, once untraced and once with timing wrappers on
every module-level function, and the per-layer metrics are printed.
Either way every output is checked (see checks.py) and the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable table goes to stderr.

Timing the first record: a child's stdout is a pipe, so Python block-
buffers it (8 KiB) and the benchmark sees a record only when a buffer is
flushed. ``setup_s`` is therefore late by up to one buffer flush, about
50 frame records of ``process`` (~3 ms) or, for a command that prints less
than a buffer, the time until it exits.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("stream", "derive", "simulate")

END_TO_END = {
    "setup_s": "s",
    "cpu_ref": "ref",
    "ops_per_cpu_ref": "1/ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "measurement.parse_us_per_frame": "us",
    "measurement.estimate_us_per_frame": "us",
    "measurement.stream_us_per_frame": "us",
    "measurement.diagnostics": "count",
    "measurement.write_us_per_frame": "us",
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "fpcf.eval_calls": "count",
    "fpcf.eval_us": "us",
    "clogging.us_per_frame": "us",
    "clogging.alarms_raised": "count",
    "clogging.alarms_cleared": "count",
    "cli.format_us_per_frame": "us",
    "profile.calls": "count",
    "profile.points": "count",
    "profile.points_per_call": "count",
    "profile.points_per_s": "1/s",
    "profile.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.points": "count",
    "quadrature.self_s": "s",
    "quadrature.failed": "count",
    "fpcf.area_mean_calls": "count",
    "fpcf.chord_mean_calls": "count",
    "fpcf.area_mean_s": "s",
    "fpcf.table_s": "s",
    "fpcf.fit_s": "s",
    "fpcf.area_mean_reuse": "ratio",
    "fpcf.max_err_vs_ref": "ratio",
    "simulator.points": "count",
    "simulator.generate_s": "s",
    "cli.import_s": "s",
    "config.self_s": "s",
    "calibration.calls": "count",
    "calibration.self_s": "s",
    "accuracy.flow_err_max_pct": "%",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Command:
    """One finished CLI command. Times are perf_counter seconds."""

    argv: list
    text: str
    returncode: int
    t_spawn: float
    t_first: float | None = None  # first output chunk seen in the pipe
    t_exit: float = 0.0
    rss_kb: int = 0
    cpu_s: float = 0.0  # user + system, all threads
    frame_rate: float | None = None
    frame_cpu_rate: float | None = None  # frame records per main-thread CPU second
    stderr: str = ""


@dataclass
class Pass:
    """One run of a workload's command sequence."""

    commands: list
    main: list  # the commands whose start-up is `setup_s`
    state: object = None
    ref_cpu_s: float = 0.0  # reference task CPU time around the pass

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)

    @property
    def wall_s(self) -> float:
        return self.commands[-1].t_exit - self.commands[0].t_spawn


class ChildRunner:
    """Runs each command as ``python3 -m partialflow.cli`` on the checkout's src.

    Commands go through launcher.py, a separate small process, so that
    each child's peak RSS is its own (see there).
    """

    def __init__(self, workdir: Path):
        self.out = workdir / "out.txt"
        self.err = workdir / "stderr.txt"
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        )

    def __call__(self, argv: list) -> Command:
        command = self._request([sys.executable, "-m", "partialflow.cli", *argv])
        command.argv = argv
        return command

    def _request(self, argv: list) -> Command:
        request = {"argv": argv, "out": str(self.out), "err": str(self.err)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return Command(
            argv=argv,
            text=self.out.read_text(encoding="utf-8", errors="replace"),
            stderr=self.err.read_text(encoding="utf-8", errors="replace"),
            **json.loads(reply),
        )

    def reference(self) -> float:
        """CPU seconds of one run of the fixed reference task (speed_ref.py)."""
        command = self._request([sys.executable, str(BENCH_DIR / "speed_ref.py")])
        if command.returncode != 0:
            raise RuntimeError(f"reference task failed: {command.stderr.strip()[-200:]}")
        return command.cpu_s

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        finally:
            if self.launcher.returncode is None:
                self.launcher.kill()
                self.launcher.wait()
            self.launcher.stdout.close()


class InProcessRunner:
    """Runs each command through ``partialflow.cli.main`` in this process."""

    def __init__(self, workdir: Path):
        import partialflow.cli  # noqa: F401

        self.out = workdir / "out.txt"

    def __call__(self, argv: list) -> Command:
        cli = sys.modules["partialflow.cli"]
        t_spawn = time.perf_counter()
        returncode = cli.main([*argv, "--out", str(self.out)])
        t_exit = time.perf_counter()
        return Command(argv, self.out.read_text(encoding="utf-8"), returncode,
                       t_spawn, t_exit=t_exit)


class Workload:
    """Inputs for one seed, the command sequence of one pass, and its checks."""

    def __init__(self, name: str, seed: int, workdir: Path):
        from partialflow.config import load_config

        self.name = name
        self.table = reference.load_table()
        if name == "stream":
            self.config_path = reference.STREAM_CONFIG_PATH
            self.coeffs = _stored_coeffs(self.config_path)
            config = load_config(str(self.config_path))
            self.log = inputs.stream_log(workdir / "frames.csv", seed, config)
            self.trials_path = workdir / "trials.csv"
        elif name == "derive":
            self.config_path = workdir / "derive.cfg"
            self.config_path.write_text("fpcf.derive = true\n", encoding="utf-8")
            config = load_config(str(self.config_path))
            self.log = inputs.derive_log(workdir / "frames.csv", seed, config)
            self.ref_coeffs = reference.fit_coeffs(self.table, 50.0, 250.0)
        elif name == "simulate":
            self.points = inputs.simulate_points(seed)
        else:
            raise ValueError(f"unknown workload {name!r}")

    def run_pass(self, run) -> Pass:
        if self.name == "simulate":
            commands = [run(point.argv()) for point in self.points]
            return Pass(commands, commands)
        process = run(["process", "--config", str(self.config_path),
                       "--frames", str(self.log.path)])
        records = checks.parse_process_output(process.text)
        if self.name == "derive":
            return Pass([process], [process], records)
        rows = checks.segment_trials(records, self.log)
        checks.write_trials(self.trials_path, rows)
        calibrate = run(["calibrate", "--trials", str(self.trials_path)])
        k_cal = checks.number(calibrate.text.partition("=")[2]) or 1.0
        metrics = run(["metrics", "--trials", str(self.trials_path), "--k-cal", repr(k_cal)])
        return Pass([process, calibrate, metrics], [process], (records, rows))

    def check(self, p: Pass, tally: checks.Tally) -> None:
        for command in p.commands:
            if command.returncode != 0:
                tally.problem(f"{command.argv[0]} exited {command.returncode}: "
                              f"{command.stderr.strip()[-200:]}")
        if self.name == "simulate":
            for command, point in zip(p.commands, self.points):
                checks.check_simulate(command.text, point, self.table, tally)
        elif self.name == "derive":
            checks.check_frames(p.state, self.log, tally, ref_coeffs=self.ref_coeffs)
        else:
            records, rows = p.state
            checks.check_frames(records, self.log, tally, coeffs=self.coeffs)
            k_cal = checks.check_calibrate(p.commands[1].text, rows, tally)
            if k_cal is not None:
                checks.check_metrics(p.commands[2].text, rows, k_cal, tally)


def _stored_coeffs(path: Path) -> tuple:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        values[key.strip()] = value.strip()
    return tuple(float(values[f"fpcf.c{k}"]) for k in range(7))


def measure(workload: Workload, seconds: float, workdir: Path, tally: checks.Tally) -> dict:
    """End-to-end metrics: closed loop of child processes for ``seconds``.

    The reference task runs before the first pass and after every pass;
    ``cpu_ref`` and ``ops_per_cpu_ref`` divide each pass by the mean of the
    two reference runs around it. The raw wall-clock and CPU figures are
    returned beside them and printed, not reported: on a shared host they
    move by 25-50% for minutes at a time.
    """
    run = ChildRunner(workdir)
    passes = []
    try:
        ref = run.reference()
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            p = workload.run_pass(run)
            after = run.reference()
            p.ref_cpu_s, ref = 0.5 * (ref + after), after
            workload.check(p, tally)
            passes.append(p)
    finally:
        run.close()
    setups = [c.t_first - c.t_spawn for p in passes for c in p.main if c.t_first is not None]
    if workload.name == "simulate":
        rates = [(len(p.commands) / p.wall_s, len(p.commands) / p.cpu_s, p) for p in passes]
    else:
        rates = [(c.frame_rate, c.frame_cpu_rate, p) for p in passes for c in p.main
                 if c.frame_rate and c.frame_cpu_rate]
    if not setups or not rates:
        tally.problem("no output records to time")
        setups, rates = setups or [0.0], rates or [(0.0, 0.0, passes[0])]
    return {
        "setup_s": statistics.median(setups),
        "cpu_ref": statistics.median(p.cpu_s / p.ref_cpu_s for p in passes),
        "ops_per_cpu_ref": statistics.median(cpu_rate * p.ref_cpu_s for _, cpu_rate, p in rates),
        "peak_rss_mb": max(c.rss_kb for p in passes for c in p.commands) / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": statistics.median(rate for rate, _, _ in rates),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "ops_per_cpu_s": statistics.median(cpu_rate for _, cpu_rate, _ in rates),
        "ref_cpu_s": statistics.median(p.ref_cpu_s for p in passes),
    }


def import_seconds(repeats: int = 3) -> float:
    """Median time to import partialflow.cli in a fresh interpreter."""
    code = ("import time, sys; t = time.perf_counter(); import partialflow.cli; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def trace(workload: Workload, seconds: float, workdir: Path, tally: checks.Tally) -> dict:
    """Per-layer metrics: untraced and traced in-process passes, in pairs."""
    import tracing

    run = InProcessRunner(workdir)
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        plain = workload.run_pass(run)
        workload.check(plain, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workload.run_pass(run)
        finally:
            tracer.uninstall()
        workload.check(traced, tally)
        metrics = tracing.layer_metrics(
            tracer, lambda h: reference.interpolate(workload.table, h))
        metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        samples.append(metrics)
    tracer.write(WORK / f"spans-{workload.name}.csv")
    result = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    result["cli.import_s"] = import_seconds()
    result["accuracy.flow_err_max_pct"] = 100.0 * tally.flow_err_max
    return result


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(name, seed, workdir)
        tally = checks.Tally()
        if traced:
            values, units = trace(workload, seconds, workdir, tally), PER_LAYER
        else:
            values, units = measure(workload, seconds, workdir, tally), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(name, tally, values, units)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


RAW_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "cpu_s": "s", "ops_per_cpu_s": "1/s",
             "ref_cpu_s": "s"}


def report(name: str, tally: checks.Tally, values: dict, units: dict) -> None:
    err = sys.stderr
    print(f"== {name}: attempted={tally.attempted} failed={tally.failed} "
          f"wrong={tally.wrong}", file=err)
    for key, unit in {**units, **RAW_UNITS}.items():
        if key in values:
            print(f"  {key:36s} {values[key]:>16.6g} {unit}", file=err)
    for note in tally.notes:
        print(f"  note: {note}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "partialflow" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
