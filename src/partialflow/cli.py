"""Command-line front end.

Levels cross this boundary in millimeters and flows in liters per second,
matching the units of the correction polynomial and the published tables;
everything internal is SI. Exit codes: 0 success, 1 invalid input data,
2 invalid configuration.
"""

import argparse
import contextlib
import gc
import math
import sys
from itertools import chain, repeat

# Each command imports the layers it runs, so calibrate, metrics and --help load no
# numpy. calibration and clogging are numpy-free; calibration stays here, where the
# benchmark's tracer expects to find it loaded after any command has run.
from .calibration import (
    calibration_factor,
    error_table,
    error_table_csv,
    first_segments,
    format_error_table,
    read_trials,
)
from .clogging import Verdict
from .errors import ConfigError, PartialFlowError

# The values of simulator.WeirMode, in order, written out so that building the parser
# does not import the simulator and numpy.
_WEIR_TEXT = ("none", "weir1", "weir2")

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_BAD_CONFIG = 2
EXIT_ALARM = 3


@contextlib.contextmanager
def _out_stream(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


@contextlib.contextmanager
def _in_stream(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, encoding="utf-8") as fh:
            yield fh


def cmd_profile(args) -> int:
    from .config import load_config
    from .geometry import WaterLevel
    from .profile import ProfileModel, profile_grid

    config = load_config(args.config)
    model = ProfileModel(config.pipe, WaterLevel(args.level_mm / 1000.0), config.params)
    grid = profile_grid(model, args.nx, args.ny)
    with _out_stream(args.out) as fh:
        grid.write_csv(fh)
    return EXIT_OK


def cmd_fpcf(args) -> int:
    from .config import fpcf_table, load_config

    table = fpcf_table(load_config(args.config))
    with _out_stream(args.out) as fh:
        fh.write("H_mm,fpcf\n")
        for level_mm, value in table:
            fh.write(f"{level_mm!r},{value!r}\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    from .config import format_fit_document
    from .fpcf import fit_polynomial

    samples = []
    with _in_stream(args.table) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.lower().startswith("h_mm"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise PartialFlowError(f"fpcf table line {line_no}: expected 2 fields")
            try:
                level, value = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise PartialFlowError(f"fpcf table line {line_no}: {exc}") from exc
            if not (math.isfinite(level) and math.isfinite(value)):
                raise PartialFlowError(f"fpcf table line {line_no}: level and FPCF must be finite")
            samples.append((level, value))
    fit = fit_polynomial(samples)
    with _out_stream(args.out) as fh:
        fh.write(format_fit_document(fit))
    return EXIT_OK


_CLOG_TEXT = (*(v.value for v in Verdict), "-")  # FrameChunk.clog codes


def _diagnostic_record(diag) -> str:
    where = "" if diag.line_no is None else f" line={diag.line_no}"
    ts = "" if diag.timestamp_s is None else f" ts={diag.timestamp_s!r}"
    return f"diagnostic{where}{ts} detail={diag.detail!r}\n"


def _chunk_records(chunk) -> str:
    """A chunk's records in input order, each alarm after its frame. Per frame only ts,
    v and q are converted (``%s`` of a float is its repr); the rest is memoised per
    distinct level (which sets the area), fpcf, status and verdict, keyed on the bits
    of the floats so that -0.0 keeps its sign, and looked up once per run of frames."""
    from ._numpy import np  # both loaded by process, before the first chunk
    from .measurement import STATUSES

    ts, v, q = chunk.ts.tolist(), chunk.v_line.tolist(), (1000.0 * chunk.flow_m3s).tolist()
    for f in np.flatnonzero(chunk.clog == 2).tolist():
        v[f] = q[f] = "-"
    key = np.stack((chunk.level.view(np.int64), chunk.fpcf.view(np.int64), chunk.status, chunk.clog))
    runs = np.flatnonzero(np.concatenate(([len(ts) > 0], (key[:, 1:] != key[:, :-1]).any(axis=0))))
    level, area, fpcf, memo, text = chunk.level, chunk.area, chunk.fpcf, {}, []
    for f, k in zip(runs.tolist(), map(tuple, key[:, runs].T.tolist())):
        if k not in memo:
            memo[k] = (f"frame ts=%s level_mm={level[f].item()!r} v_line_mps=%s"
                       f" area_m2={area[f].item()!r} fpcf={fpcf[f].item()!r} q_lps=%s"
                       f" status={STATUSES[k[2]].value} clog={_CLOG_TEXT[k[3]]}\n")
        text.append(memo[k])
    templates = map(repeat, text, np.diff(np.append(runs, len(ts))).tolist())
    records = list(map(str.__mod__, chain.from_iterable(templates), zip(ts, v, q)))
    for f, event in chunk.events:
        records[f] += (f"alarm ts={ts[f]!r} event={event.value}"
                       f" level_mm={level[f].item()!r} v_line_mps={v[f]!r}\n")
    return "".join(chunk.in_order(records, _diagnostic_record))


def cmd_process(args) -> int:
    from .config import load_config, resolve_polynomial
    from .measurement import process_lines

    config = load_config(args.config)
    poly, _ = resolve_polynomial(config)
    frames_seen = diagnostics = raised = cleared = 0
    with _in_stream(args.frames) as src, _out_stream(args.out) as fh:
        for chunk in process_lines(src, config, poly):
            fh.write(_chunk_records(chunk))
            frames_seen += len(chunk.ts) - len(chunk.misfits)
            diagnostics += len(chunk.diags) + len(chunk.misfits)
            up = sum(event.value == "raised" for _, event in chunk.events)
            raised, cleared = raised + up, cleared + len(chunk.events) - up
        fh.write(
            f"summary frames={frames_seen} diagnostics={diagnostics}"
            f" alarms={raised} clears={cleared}\n"
        )
    if diagnostics and not frames_seen:
        print("error: no frame in the input could be estimated", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.fail_on_alarm and raised:
        return EXIT_ALARM
    return EXIT_OK


def cmd_calibrate(args) -> int:
    with _in_stream(args.trials) as fh:
        trials = list(read_trials(fh))
    k_cal = calibration_factor(first_segments(trials))
    with _out_stream(args.out) as fh:
        fh.write(f"calibration.factor = {k_cal!r}\n")
    return EXIT_OK


def cmd_metrics(args) -> int:
    with _in_stream(args.trials) as fh:
        trials = list(read_trials(fh))
    table = error_table(trials, k_cal=args.k_cal)
    with _out_stream(args.out) as fh:
        fh.write(format_error_table(table) + "\n")
    if args.csv_out:
        with _out_stream(args.csv_out) as fh:
            fh.write(error_table_csv(table))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .config import load_config
    from .measurement import write_frame_rows
    from .simulator import ScenarioSpec, WeirMode, baseline_level_mm, generate

    config = load_config(args.config)
    level = args.level_mm if args.level_mm is not None else baseline_level_mm(args.flow_lps)
    # a flag left out is not in args, and its field keeps ScenarioSpec's default
    given = {field: convert(getattr(args, flag)) for flag, field, convert in (
        ("weir", "weir", WeirMode), ("noise_ns", "noise_sigma_s", lambda ns: ns * 1e-9),
        ("seed", "seed", int), ("frames", "frame_count", int),
        ("interval", "frame_interval_s", float)) if flag in args}
    scenario = ScenarioSpec(flow_lps=args.flow_lps, level_mm=level, **given)
    frames = generate(scenario, config.chords, config.pipe, config.params, config.quad)
    with _out_stream(args.out) as fh:
        write_frame_rows(frames, fh)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialflow",
        description="Ultrasonic flow measurement chain for partially filled pipes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="emit a normalized velocity profile grid as CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--level-mm", type=float, required=True)
    p.add_argument("--nx", type=int, default=101)
    p.add_argument("--ny", type=int, default=101)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("fpcf", help="tabulate the correction factor over the config's fpcf.* "
                       "levels at the lowest chord")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fpcf)

    p = sub.add_parser("fit", help="fit the correction polynomial to a table")
    p.add_argument("--table", default="-", help="CSV H_mm,fpcf (default stdin)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("process", help="turn sensor frames into flow estimates")
    p.add_argument("--config", default=None)
    p.add_argument("--frames", default="-", help="frame CSV (default stdin)")
    p.add_argument("--out", default="-")
    p.add_argument("--fail-on-alarm", action="store_true",
                   help="exit 3 if any clogging alarm was raised")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("calibrate", help="derive k_cal from first trial segments")
    p.add_argument("--trials", default="-", help="CSV segment_id,flow_label,q_ref_lps,q_meas_lps")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("metrics", help="per-rate errors and flow-weighted mean error")
    p.add_argument("--trials", default="-")
    p.add_argument("--k-cal", type=float, default=1.0)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="generate synthetic sensor frames",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default=None)
    p.add_argument("--flow-lps", type=float, required=True)
    p.add_argument("--level-mm", type=float, default=None,
                   help="default: rig baseline level for the flow rate")
    p.add_argument("--weir", choices=_WEIR_TEXT)
    p.add_argument("--frames", type=int)
    p.add_argument("--interval", type=float)
    p.add_argument("--noise-ns", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (PartialFlowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    """``python -m partialflow.cli`` and the ``partialflow`` script: run one command and
    exit with its code. Its files are closed by then, so the heap is frozen first and the
    shutdown collections skip it (~35 ms with numpy). ``main`` alone never freezes."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
