"""Command-line front end.

Levels cross this boundary in millimeters and flows in liters per second,
matching the units of the correction polynomial and the published tables;
everything internal is SI. Exit codes: 0 success, 1 invalid input data,
2 invalid configuration, 3 an alarm under --fail-on-alarm, 141 a closed reader.
"""

import argparse
import contextlib
import gc
import io
import math
import os
import re
import sys

# Each command imports the layers it runs: calibrate, metrics and --help no other; process
# config, measurement, clogging and geometry; fpcf, fit, profile, simulate and a derived
# process also fpcf, profile and quadrature. calibration stays here, where the benchmark's
# tracer expects to find it loaded after any command has run.
from .calibration import (
    _csv_rows,
    _decimal,
    calibration_factor,
    error_table,
    error_table_csv,
    first_segments,
    format_error_table,
    read_trials,
)
from .errors import ConfigError, DegenerateProfileError, OutOfRangeError, PartialFlowError

# The values of simulator.WeirMode, in order, written out so that building the parser
# does not import the simulator and the FPCF stack under it.
_WEIR_TEXT = ("none", "weir1", "weir2")
_FPCF_CSV_HEADER = "H_mm,fpcf"  # written by fpcf, read by fit
# argparse takes -inf, -1e3 or -1. after a flag for an option: main joins it, --flag=-inf
_NEGATIVE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_BAD_CONFIG = 2
EXIT_ALARM = 3
EXIT_CLOSED_READER = 141  # as a shell reports a process that SIGPIPE stopped


@contextlib.contextmanager
def _stream(path: str, mode: str = "r"):
    """The file at ``path`` opened in ``mode``; "-" is stdin to read and stdout to write,
    block-buffered even under PYTHONUNBUFFERED, where each record would be a system call."""
    if path != "-":  # utf-8-sig reads past a byte-order mark; writing with it would add one
        with open(path, mode, encoding="utf-8-sig" if mode == "r" else "utf-8") as fh:
            yield fh
    elif mode != "w":  # past a byte-order mark as a file is; a stand-in stream as given
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(encoding="utf-8-sig")
        yield sys.stdin
    elif not getattr(sys.stdout, "write_through", False):
        yield sys.stdout
    else:
        sys.stdout.reconfigure(write_through=False)
        try:
            yield sys.stdout
        finally:
            sys.stdout.reconfigure(write_through=True)


def cmd_profile(args) -> int:
    from .config import load_config
    from .fpcf import mean_area_velocity
    from .geometry import WaterLevel
    from .profile import ProfileModel, profile_grid

    config = load_config(args.config)
    try:  # the level's records word a refusal in metres: it names the flag as typed
        model = ProfileModel(config.pipe, WaterLevel(args.level_mm / 1000.0), config.params)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"{exc} for --level-mm {args.level_mm:g}") from None
    v_area = mean_area_velocity(model, config.quad)  # fpcf() refuses every chord unless > 0
    if not 0 < v_area < math.inf:
        raise DegenerateProfileError(f"profile undefined at H={model.level.level_m:g} m: area "
                                     f"mean {v_area:g} is not finite and positive")
    grid = profile_grid(model, args.nx, args.ny)
    with _stream(args.out, "w") as fh:
        grid.write_csv(fh)
    return EXIT_OK


def cmd_fpcf(args) -> int:
    from .config import load_config
    from .fpcf import tabulate_fpcf

    table = tabulate_fpcf(load_config(args.config))
    with _stream(args.out, "w") as fh:
        fh.write(_FPCF_CSV_HEADER + "\n")
        for level_mm, value in table:
            fh.write(f"{level_mm!r},{value!r}\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    from .config import format_fit_document
    from .fpcf import fit_polynomial

    samples = []
    with _stream(args.table) as fh:
        for line_no, parts in _csv_rows(fh, _FPCF_CSV_HEADER, "fpcf table"):
            try:
                level, value = _decimal(float, parts[0]), _decimal(float, parts[1])
            except ValueError as exc:
                raise PartialFlowError(f"fpcf table line {line_no}: {exc}") from exc
            if not (math.isfinite(level) and 0 < value < math.inf):
                raise PartialFlowError(f"fpcf table line {line_no}: level must be finite and "
                                       "FPCF finite and positive")
            samples.append((level, value))
    fit = fit_polynomial(samples)
    with _stream(args.out, "w") as fh:
        fh.write(format_fit_document(fit))
    return EXIT_OK


def cmd_process(args) -> int:
    """Each record written as it comes. Per frame only ts, v and q are converted (``%s``
    of a float is its repr); the rest is a template per level (which alone sets area,
    fpcf and status) and ``clog``, a bool or None: no Enum is hashed per frame. A zero
    level keys by its text: -0.0 keeps its sign."""
    from .clogging import AlarmEvent, Verdict
    from .config import load_config, resolve_polynomial
    from .measurement import LEVELS_KEPT, Frame, process_lines

    config, _ = resolve_polynomial(load_config(args.config))
    frames_seen = diagnostics = raised = cleared = 0
    templates = {}
    with _stream(args.frames) as src:  # opening --out empties it: refuse the file src reads
        with contextlib.suppress(io.UnsupportedOperation):  # a stand-in stdin has no fileno
            if args.out != "-" and os.path.isfile(args.out) and os.path.samestat(
                    os.fstat(src.fileno()), os.stat(args.out)):
                read = "file process reads on stdin" if args.frames == "-" else "--frames file"
                raise PartialFlowError(f"--out {args.out} is the {read}; it would be emptied")
        with _stream(args.out, "w") as fh:
            for item in process_lines(src, config):
                if type(item) is not Frame:
                    diagnostics += 1
                    where = "" if item.line_no is None else f" line={item.line_no}"
                    when = "" if item.timestamp_s is None else f" ts={item.timestamp_s!r}"
                    fh.write(f"diagnostic{where}{when} detail={item.detail!r}\n")
                    continue
                ts, level, v, area, fpcf, flow, status, clog, event = item
                key = (level or repr(level), clog)
                text = templates.get(key)
                if text is None:
                    if len(templates) == LEVELS_KEPT:
                        templates.clear()
                    verdict = "-" if clog is None else (
                        Verdict.CLOGGING if clog else Verdict.NORMAL).value
                    text = templates[key] = (
                        f"frame ts=%s level_mm={level!r} v_line_mps=%s area_m2={area!r}"
                        f" fpcf={fpcf!r} q_lps=%s status={status.value} clog={verdict}\n")
                fh.write(text % ((ts, "-", "-") if clog is None else (ts, v, 1000.0 * flow)))
                frames_seen += 1
                if event is not None:
                    fh.write(f"alarm ts={ts!r} event={event.value} level_mm={level!r}"
                             f" v_line_mps={v!r}\n")
                    raised += event is AlarmEvent.RAISED
                    cleared += event is AlarmEvent.CLEARED
            fh.write(f"summary frames={frames_seen} diagnostics={diagnostics}"
                     f" alarms={raised} clears={cleared}\n")
    if diagnostics and not frames_seen:
        print("error: no frame in the input could be estimated", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.fail_on_alarm and raised:
        return EXIT_ALARM
    return EXIT_OK


def cmd_calibrate(args) -> int:
    with _stream(args.trials) as fh:
        trials = list(read_trials(fh))
    k_cal = calibration_factor(first_segments(trials))
    with _stream(args.out, "w") as fh:
        fh.write(f"calibration.factor = {k_cal!r}\n")
    return EXIT_OK


def cmd_metrics(args) -> int:
    with _stream(args.trials) as fh:
        trials = list(read_trials(fh))
    table = error_table(trials, k_cal=args.k_cal)
    with _stream(args.out, "w") as fh:
        fh.write(format_error_table(table) + "\n")
    if args.csv_out:
        with _stream(args.csv_out, "w") as fh:
            fh.write(error_table_csv(table))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .config import load_config
    from .geometry import WaterLevel
    from .measurement import write_frame_rows
    from .simulator import ScenarioSpec, WeirMode, baseline_level_mm, generate

    config = load_config(args.config)
    level = args.level_mm if args.level_mm is not None else baseline_level_mm(args.flow_lps)
    if args.level_mm is not None:  # refused by the level's records, named as in profile
        try:
            WaterLevel(level / 1000.0).check_against(config.pipe)
        except OutOfRangeError as exc:
            raise OutOfRangeError(f"{exc} for --level-mm {level:g}") from None
    if not 0 <= (noise := vars(args).get("noise_ns", 0.0)) < math.inf:  # as typed, not in s
        raise PartialFlowError(f"--noise-ns must be finite and non-negative, got {noise:g}")
    # a flag left out is not in args, and its field keeps ScenarioSpec's default
    given = {field: convert(getattr(args, flag)) for flag, field, convert in (
        ("weir", "weir", WeirMode), ("noise_ns", "noise_sigma_s", lambda ns: ns * 1e-9),
        ("seed", "seed", int), ("frames", "frame_count", int),
        ("interval", "frame_interval_s", float)) if flag in args}
    scenario = ScenarioSpec(flow_lps=args.flow_lps, level_mm=level, **given)
    frames = generate(scenario, config.chords, config.pipe, config.params, config.quad)
    with _stream(args.out, "w") as fh:
        write_frame_rows(frames, fh)
    return EXIT_OK


def _flag_type(convert):
    """A number flag's ``type``: ``convert`` under ``_decimal``'s rule, named as in argparse."""
    def parse(text: str):
        return _decimal(convert, text)
    parse.__name__ = convert.__name__
    return parse


_FLOAT, _INT = _flag_type(float), _flag_type(int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialflow",
        description="Ultrasonic flow measurement chain for partially filled pipes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="emit a normalized velocity profile grid as CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--level-mm", type=_FLOAT, required=True)
    p.add_argument("--nx", type=_INT, default=101)
    p.add_argument("--ny", type=_INT, default=101)
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
    p.add_argument("--k-cal", type=_FLOAT, default=1.0)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="generate synthetic sensor frames",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default=None)
    p.add_argument("--flow-lps", type=_FLOAT, required=True)
    p.add_argument("--level-mm", type=_FLOAT, default=None,
                   help="default: rig baseline level for the flow rate")
    p.add_argument("--weir", choices=_WEIR_TEXT)
    p.add_argument("--frames", type=_INT)
    p.add_argument("--interval", type=_FLOAT)
    p.add_argument("--noise-ns", type=_FLOAT)
    p.add_argument("--seed", type=_INT)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1][:2] == "--" and "=" not in argv[i - 1] and _NEGATIVE.match(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except BrokenPipeError:  # a reader that has gone: not bad input, ``entry`` ends quietly
        raise
    except (PartialFlowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    """``python -m partialflow.cli`` and the ``partialflow`` script: run one command and
    exit with its code. Its files are closed by then, so the heap is frozen first and the
    shutdown collections skip it. ``main`` alone never freezes."""
    try:
        code = main()
        sys.stdout.flush()  # a reader that has gone is met here, not at exit
    except BrokenPipeError:  # end quietly, and point fd 1 where exit's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_READER
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
