"""Command-line front end.

Levels cross this boundary in millimeters and flows in liters per second,
matching the units of the correction polynomial and the published tables;
everything internal is SI. Exit codes: 0 success, 1 invalid input data,
2 invalid configuration.
"""

import argparse
import contextlib
import sys

from .calibration import (
    calibration_factor,
    error_table,
    error_table_csv,
    first_segments,
    format_error_table,
    read_trials,
)
from .config import format_fit_document, load_config, resolve_polynomial
from .errors import ConfigError, PartialFlowError
from .fpcf import fit_polynomial, tabulate_fpcf
from .geometry import WaterLevel
from .measurement import FrameDiagnostic, process_lines, write_frame_rows
from .profile import ProfileModel, profile_grid
from .simulator import ScenarioSpec, WeirMode, baseline_level_mm, generate

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


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_profile(args) -> int:
    config = load_config(args.config)
    model = ProfileModel(
        pipe=config.pipe,
        level=WaterLevel(args.level_mm / 1000.0),
        params=config.params,
    )
    grid = profile_grid(model, args.nx, args.ny)
    with _out_stream(args.out) as fh:
        grid.write_csv(fh)
    return EXIT_OK


def cmd_fpcf(args) -> int:
    config = load_config(args.config)
    chord_height = args.chord_height_mm
    if chord_height is None:
        chord_height = min(c.height_mm for c in config.chords)
    samples = tabulate_fpcf(
        config.pipe,
        config.params,
        chord_height,
        args.h_min,
        args.h_max,
        args.step,
        config.quad,
    )
    with _out_stream(args.out) as fh:
        fh.write("H_mm,fpcf\n")
        for s in samples:
            fh.write(f"{s.level_mm!r},{s.fpcf!r}\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    samples = []
    with _in_stream(args.table) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.lower().startswith("h_mm"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise PartialFlowError(f"fpcf table line {line_no}: expected 2 fields")
            samples.append((float(parts[0]), float(parts[1])))
    fit = fit_polynomial(samples, args.degree)
    with _out_stream(args.out) as fh:
        fh.write(format_fit_document(fit))
    return EXIT_OK


def cmd_process(args) -> int:
    config = load_config(args.config)
    poly, _ = resolve_polynomial(config)
    frames_seen = 0
    diagnostics = 0
    raised = 0
    cleared = 0
    with _in_stream(args.frames) as src, _out_stream(args.out) as fh:
        items = process_lines(src, config.chords, poly, config.pipe, config.k_cal,
                              config.boundary, config.debounce)
        for item in items:
            if isinstance(item, FrameDiagnostic):
                diagnostics += 1
                where = f" line={item.line_no}" if item.line_no is not None else ""
                ts = f" ts={_fmt(item.timestamp_s)}" if item.timestamp_s is not None else ""
                fh.write(f"diagnostic{where}{ts} detail={item.detail!r}\n")
                continue
            frames_seen += 1
            ts, level, v, area, fpcf, flow, status, verdict, event, _ = item
            fh.write(
                f"frame ts={ts!r} level_mm={level!r} v_line_mps={_fmt(v)}"
                f" area_m2={area!r} fpcf={fpcf!r}"
                f" q_lps={'-' if flow is None else repr(1000.0 * flow)}"
                f" status={status.value} clog={verdict.value if verdict else '-'}\n"
            )
            if event is not None:
                if event.value == "raised":
                    raised += 1
                else:
                    cleared += 1
                fh.write(
                    f"alarm ts={ts!r} event={event.value}"
                    f" level_mm={level!r} v_line_mps={v!r}\n"
                )
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
    config = load_config(args.config)
    level = args.level_mm if args.level_mm is not None else baseline_level_mm(args.flow_lps)
    scenario = ScenarioSpec(
        flow_lps=args.flow_lps,
        level_mm=level,
        weir=WeirMode(args.weir),
        noise_sigma_s=args.noise_ns * 1e-9,
        seed=args.seed,
        frame_count=args.frames,
        frame_interval_s=args.interval,
    )
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

    p = sub.add_parser("fpcf", help="tabulate the correction factor over levels")
    p.add_argument("--config", default=None)
    p.add_argument("--chord-height-mm", type=float, default=None)
    p.add_argument("--h-min", type=float, default=50.0)
    p.add_argument("--h-max", type=float, default=250.0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fpcf)

    p = sub.add_parser("fit", help="fit the correction polynomial to a table")
    p.add_argument("--table", default="-", help="CSV H_mm,fpcf (default stdin)")
    p.add_argument("--degree", type=int, default=6)
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

    p = sub.add_parser("simulate", help="generate synthetic sensor frames")
    p.add_argument("--config", default=None)
    p.add_argument("--flow-lps", type=float, required=True)
    p.add_argument("--level-mm", type=float, default=None,
                   help="default: rig baseline level for the flow rate")
    p.add_argument("--weir", choices=[m.value for m in WeirMode], default="none")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--interval", type=float, default=1.0)
    p.add_argument("--noise-ns", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
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


if __name__ == "__main__":
    sys.exit(main())
