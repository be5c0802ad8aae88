import io
import math
import os
import re
import shlex
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

import pytest

from partialflow import measurement
from partialflow.calibration import _decimal
from partialflow.cli import main

DERIVE_CFG = "fpcf.derive = true\nfpcf.h_max_mm = 180\n"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    @pytest.mark.parametrize("level", ["100", "125", "150"])
    def test_reference_levels(self, capsys, level):
        code, out, _ = run(capsys, "profile", "--level-mm", level, "--nx", "41", "--ny", "41")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_mm,y_mm,v_norm"
        assert len(lines) == 1 + 41 * 41
        # plain decimals (or nan outside the bore), never a numpy repr
        assert all(len([float(v) for v in line.split(",")]) == 3 for line in lines[1:])

    def test_overfull_level_exits_1(self, capsys):
        code, _, err = run(capsys, "profile", "--level-mm", "300")
        assert code == 1
        assert "error" in err

    def test_minimal_grid(self, capsys):
        code, out, _ = run(capsys, "profile", "--level-mm", "125", "--nx", "2", "--ny", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_clamped_region_grid_is_unchanged(self, capsys):
        # at 230 mm the dip ratio is under 1/2, so points near the surface take the clamp
        code, out, err = run(capsys, "profile", "--level-mm", "230", "--nx", "9", "--ny", "9")
        assert (code, err) == (0, "")
        assert out == (DATA / "profile_230mm_9x9.csv").read_text(encoding="utf-8")


def fpcf_range(tmp_path, h_min, h_max, step) -> str:
    """A config file that sets only the FPCF tabulation range."""
    cfg = tmp_path / "range.cfg"
    cfg.write_text(f"fpcf.h_min_mm = {h_min}\nfpcf.h_max_mm = {h_max}\nfpcf.step_mm = {step}\n")
    return str(cfg)


class TestFpcfAndFit:
    def test_two_row_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fpcf", "--config", fpcf_range(tmp_path, 50, 250, 200))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "H_mm,fpcf"
        assert len(lines) == 3
        assert [float(l.split(",")[0]) for l in lines[1:]] == [50.0, 250.0]

    def test_rows_monotone_in_level(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fpcf", "--config", fpcf_range(tmp_path, 60, 120, 20))
        assert code == 0
        levels = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert levels == sorted(levels)

    def test_fit_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fpcf", "--config", fpcf_range(tmp_path, 50, 180, 10))
        assert code == 0
        table = tmp_path / "table.csv"
        table.write_text(out)
        code, doc, _ = run(capsys, "fit", "--table", str(table))
        assert code == 0
        assert "fpcf.c6 = " in doc
        assert "fpcf.rms_residual = " in doc
        # the emitted document is a valid config fragment
        from partialflow import parse_config

        config = parse_config(doc)
        assert config.poly is not None

    @pytest.mark.parametrize("row,message", [
        ("60,inf", "level must be finite and FPCF finite and positive"),
        ("nan,1.0", "level must be finite and FPCF finite and positive"),
        ("60,-0.5", "level must be finite and FPCF finite and positive"),
        ("60,0.0", "level must be finite and FPCF finite and positive"),
        ("60,1.0,2", "expected 2 fields, got 3"),
    ], ids=["fpcf_inf", "level_nan", "fpcf_negative", "fpcf_zero", "three_fields"])
    def test_fit_rejects_non_finite_row(self, capsys, tmp_path, row, message):
        # 60,inf printed seven nan coefficients with exit 0; a nan level also
        # printed LAPACK noise on stderr; a negative FPCF was fitted as data, exit 0.
        # A row of three fields is refused by its line too.
        table = tmp_path / "table.csv"
        table.write_text("H_mm,fpcf\n" + "".join(f"{h},1.0\n" for h in range(50, 130, 10))
                         + row + "\n")
        code, out, err = run(capsys, "fit", "--table", str(table))
        assert (code, out) == (1, "")
        assert err == f"error: fpcf table line 10: {message}\n"

    @pytest.mark.parametrize("row", ["6_0,1.0", "60,1_0"], ids=["level", "fpcf"])
    def test_fit_refuses_digit_separators(self, capsys, tmp_path, row):
        # float() reads 6_0 as 60: a corrupted level was fitted as data
        table = tmp_path / "table.csv"
        table.write_text("H_mm,fpcf\n" + "".join(f"{h},1.0\n" for h in range(70, 150, 10))
                         + row + "\n")
        code, out, err = run(capsys, "fit", "--table", str(table))
        field = next(f for f in row.split(",") if "_" in f)
        assert (code, out, err) == (1, "", f"error: fpcf table line 10: digit separator in "
                                           f"{field!r}\n")

    @pytest.mark.parametrize("row,message", [
        ("h_mm,3", "digit separator in 'h_mm'"),
        ("H_MM_X,oops", "digit separator in 'H_MM_X'"),
        ("h_mm,fpcf,x", "expected 2 fields, got 3"),
    ], ids=["h_mm_level", "h_mm_prefix", "three_fields"])
    def test_fit_skips_only_the_exact_header(self, capsys, tmp_path, row, message):
        # any line starting with h_mm was skipped as a header: a 9-row table with such a
        # row fitted the other 8 rows and exited 0
        table = tmp_path / "table.csv"
        table.write_text(" h_MM , FPCF \n" + "".join(f"{h},1.0\n" for h in range(50, 130, 10))
                         + row + "\n")
        code, out, err = run(capsys, "fit", "--table", str(table))
        assert (code, out, err) == (1, "", f"error: fpcf table line 10: {message}\n")

    def test_fit_reads_past_a_byte_order_mark(self, capsys, tmp_path):
        # "UTF-8 with BOM" failed at line 1: digit separator in '\ufeffH_mm'
        code, out, _ = run(capsys, "fpcf", "--config", fpcf_range(tmp_path, 50, 180, 10))
        table, bom, fitted = tmp_path / "table.csv", tmp_path / "bom.csv", tmp_path / "fit.cfg"
        table.write_text(out, encoding="utf-8")
        bom.write_text(out, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + table.read_bytes()
        want = run(capsys, "fit", "--table", str(table))
        assert want[0] == 0 and run(capsys, "fit", "--table", str(bom)) == want
        # a file is written without one
        assert run(capsys, "fit", "--table", str(bom), "--out", str(fitted))[0] == 0
        assert fitted.read_bytes() == want[1].encode()

    def test_fit_names_the_line_of_an_unparsable_field(self, capsys, tmp_path):
        # printed "error: could not convert string to float: 'abc'" with no line
        table = tmp_path / "table.csv"
        table.write_text("H_mm,fpcf\n50,1.0\n60,abc\n")
        code, out, err = run(capsys, "fit", "--table", str(table))
        assert (code, out) == (1, "")
        assert err == "error: fpcf table line 3: could not convert string to float: 'abc'\n"

    @pytest.mark.parametrize("flag", ["--chord-height-mm", "--h-min", "--h-max", "--step"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fpcf_range_flags_are_gone(self, capsys, flag, value):
        # the table's height and range come from the config alone; these flags
        # overrode its keys, and --h-max 40 exited 1 naming neither flag nor key
        with pytest.raises(SystemExit) as exc:
            main(["fpcf", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_fpcf_without_config_tabulates_the_default_range(self, capsys):
        code, out, _ = run(capsys, "fpcf")
        assert code == 0
        assert [float(l.split(",")[0]) for l in out.splitlines()[1:]] == list(range(50, 260, 10))

    def test_fpcf_output_of_the_default_table_is_unchanged(self, capsys):
        # data/fpcf_default.csv is the default table as printed before v/v_max became a
        # row kernel: reordering a sum or a product moves a last digit here, as the builtin
        # sum's compensation on Python 3.12 did
        code, out, err = run(capsys, "fpcf")
        assert (code, err) == (0, "")
        assert out == (DATA / "fpcf_default.csv").read_text(encoding="utf-8")

    def test_small_pipe_tabulates_to_its_crown(self, capsys, tmp_path):
        # fpcf.h_max_mm defaulted to 250 mm, so a 200 mm pipe alone exited 2 in
        # both commands: "fpcf.h_max_mm = 250 lies above the pipe crown at 200 mm"
        cfg, frames = tmp_path / "d200.cfg", tmp_path / "frames.csv"
        cfg.write_text("pipe.diameter_mm = 200\n")
        code, out, err = run(capsys, "fpcf", "--config", str(cfg))
        assert (code, err) == (0, "")
        levels = [float(l.split(",")[0]) for l in out.splitlines()[1:]]
        assert levels == [50.0 + 10.0 * k for k in range(16)]
        assert run(capsys, "simulate", "--config", str(cfg), "--flow-lps", "3", "--out",
                   str(frames))[0] == 0
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", str(frames))
        assert (code, err) == (0, "")
        assert " status=uncorrected " in out
        assert out.endswith("summary frames=1 diagnostics=0 alarms=0 clears=0\n")

    def test_fit_refuses_excess_degree(self, capsys, tmp_path):
        table = tmp_path / "small.csv"
        table.write_text("H_mm,fpcf\n50,0.9\n60,0.92\n70,0.95\n")
        code, _, err = run(capsys, "fit", "--table", str(table))
        assert code == 1
        assert "error" in err


class TestProcessCommand:
    def test_empty_input(self, capsys, tmp_path, monkeypatch):
        frames = tmp_path / "frames.csv"
        frames.write_text("timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm\n")
        code, out, _ = run(capsys, "process", "--frames", str(frames))
        assert code == 0
        assert out.strip() == "summary frames=0 diagnostics=0 alarms=0 clears=0"

    def test_malformed_row_counted(self, capsys, tmp_path):
        frames = tmp_path / "frames.csv"
        frames.write_text("0.0,a,202696.0,202725.0,85.0\nbroken row\n")
        code, out, _ = run(capsys, "process", "--frames", str(frames))
        assert code == 0
        assert "diagnostic" in out
        assert "summary frames=1 diagnostics=1" in out

    @pytest.mark.parametrize("row,detail", [
        ("0.0,z,202696.0,202725.0,85.0", "unknown chord id 'z'; row dropped"),
        ("0.0,a,202690.0,202725.0,85.0", "duplicate row for chord 'a'; row dropped"),
        ("0.0,b,202690.0,202725.0,90.0",
         "level 90.0 mm differs from the frame's first row (85.0 mm); row dropped"),
    ])
    def test_dropped_row_diagnosed(self, capsys, tmp_path, row, detail):
        frames = tmp_path / "frames.csv"
        frames.write_text("timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm\n"
                          f"0.0,a,202696.0,202725.0,85.0\n{row}\n1.0,a,202696.0,202725.0,85.0\n")
        code, out, _ = run(capsys, "process", "--frames", str(frames))
        clean = tmp_path / "clean.csv"
        clean.write_text("0.0,a,202696.0,202725.0,85.0\n1.0,a,202696.0,202725.0,85.0\n")
        _, reference, _ = run(capsys, "process", "--frames", str(clean))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"diagnostic line=3 ts=0.0 detail={detail!r}"
        assert lines[1:-1] == reference.splitlines()[:-1]
        assert lines[-1] == "summary frames=2 diagnostics=1 alarms=0 clears=0"

    @pytest.mark.parametrize("text", ["broken row\n", "0.0,a,202696.0,202725.0,900.0\n"])
    def test_no_frame_from_data_rows_exits_1(self, capsys, tmp_path, text):
        frames = tmp_path / "frames.csv"
        frames.write_text("timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm\n" + text)
        code, out, err = run(capsys, "process", "--frames", str(frames))
        assert code == 1
        assert "summary frames=0 diagnostics=1" in out
        assert "error" in err

    def test_first_record_before_whole_input(self, monkeypatch, tmp_path):
        # guards start-up latency and alarm delay: a frame's record, and its alarm, are
        # written once the next frame's first row is read, before any later row
        import io
        import sys

        sim = tmp_path / "frames.csv"
        main(["simulate", "--flow-lps", "4", "--weir", "weir1", "--frames", "40",
              "--out", str(sim)])
        text = sim.read_text().splitlines(keepends=True)
        consumed = 0

        def counting():
            nonlocal consumed
            for line in text:
                consumed += 1
                yield line

        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.read_at = []  # (rows read, record) per record written

            def write(self, s):
                self.read_at += [(consumed, line) for line in s.splitlines()]
                return super().write(s)

        def closing_line(ts: str) -> int:
            """The line number of the first row of the frame after the one at ``ts``."""
            return next(no for no, line in enumerate(text, 1)
                        if line[0].isdigit() and float(line.split(",")[0]) > float(ts))

        out = Recorder()
        monkeypatch.setattr(sys, "stdin", counting())
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["process", "--frames", "-"]) == 0
        assert consumed == len(text)
        records = [line for _, line in out.read_at]
        assert sum(line.startswith("frame ") for line in records) == 40
        first = next(at for at, line in out.read_at if line.startswith("frame "))
        assert first == closing_line("0.0") == 4  # the header, two rows, the next row
        raised = [(at, line) for at, line in out.read_at if "event=raised" in line]
        assert raised, "no alarm raised"
        at, line = raised[0]
        assert at == closing_line(line.split()[1].removeprefix("ts="))

    def test_unbuffered_stdout_gathers_records(self, monkeypatch, tmp_path):
        # PYTHONUNBUFFERED makes stdout pass each write on to the OS: a system call per
        # record cost process ~30% of its frame rate. Records are gathered while the
        # command runs, all of them reach the output, and stdout is left as it was.
        import io
        import sys

        class Raw(io.RawIOBase):
            calls, data = 0, b""

            def writable(self):
                return True

            def write(self, b):
                Raw.calls += 1
                Raw.data += bytes(b)
                return len(b)

        sim = tmp_path / "frames.csv"
        main(["simulate", "--flow-lps", "4", "--frames", "400", "--out", str(sim)])
        out = io.TextIOWrapper(Raw(), encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["process", "--frames", str(sim)]) == 0
        assert out.write_through
        text = Raw.data.decode()
        assert text.count("frame ") == 400 and text.endswith("alarms=0 clears=0\n")
        assert Raw.calls <= len(text) // 8192 + 2

    def test_simulate_process_chain(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(DERIVE_CFG)
        frames = tmp_path / "frames.csv"
        code, out, _ = run(
            capsys, "simulate", "--flow-lps", "4", "--frames", "3", "--out", str(frames)
        )
        assert code == 0
        code, out, _ = run(
            capsys, "process", "--config", str(cfg), "--frames", str(frames)
        )
        assert code == 0
        assert out.count("\nframe ") == 2  # 3 frames, first has no leading newline
        assert "status=ok" in out
        q_values = [
            float(part.split("=")[1])
            for line in out.splitlines()
            if line.startswith("frame ")
            for part in line.split()
            if part.startswith("q_lps=")
        ]
        assert all(abs(q - 4.0) / 4.0 < 0.005 for q in q_values)

    def test_determinism(self, capsys, tmp_path):
        frames = tmp_path / "frames.csv"
        run(capsys, "simulate", "--flow-lps", "3", "--frames", "5", "--noise-ns", "2",
            "--seed", "9", "--out", str(frames))
        code1, out1, _ = run(capsys, "process", "--frames", str(frames))
        code2, out2, _ = run(capsys, "process", "--frames", str(frames))
        assert code1 == code2 == 0
        assert out1 == out2
        assert "summary frames=5 diagnostics=0" in out1

    def test_noisy_simulate_process_round_trip(self, capsys, tmp_path):
        # noisy transit times are numpy floats; the CSV must hold plain
        # decimals so that every simulated frame parses back
        frames = tmp_path / "frames.csv"
        code, _, _ = run(capsys, "simulate", "--flow-lps", "4", "--frames", "20",
                         "--noise-ns", "0.5", "--seed", "3", "--out", str(frames))
        assert code == 0
        assert "np." not in frames.read_text()
        code, out, _ = run(capsys, "process", "--frames", str(frames))
        assert code == 0
        assert "summary frames=20 diagnostics=0" in out

    def test_weir_stream_raises_alarm(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(DERIVE_CFG)
        frames = tmp_path / "frames.csv"
        run(capsys, "simulate", "--flow-lps", "3", "--weir", "weir1", "--frames", "8",
            "--out", str(frames))
        code, out, _ = run(capsys, "process", "--config", str(cfg),
                           "--frames", str(frames), "--fail-on-alarm")
        assert code == 3
        assert "alarm" in out
        assert "event=raised" in out
        assert "clog=clogging" in out

    def test_baseline_stream_no_alarm(self, capsys, tmp_path):
        frames = tmp_path / "frames.csv"
        run(capsys, "simulate", "--flow-lps", "3", "--frames", "8", "--out", str(frames))
        code, out, _ = run(capsys, "process", "--frames", str(frames), "--fail-on-alarm")
        assert code == 0
        assert "alarms=0" in out

    def test_stdin_pipe_composition(self, capsys, monkeypatch):
        import io
        import sys

        code, sim_out, _ = run(capsys, "simulate", "--flow-lps", "4", "--frames", "2")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(sim_out))
        code, out, _ = run(capsys, "process", "--frames", "-")
        assert code == 0
        assert "summary frames=2" in out

    @pytest.mark.parametrize("derive,status,q_lps", [
        (False, "uncorrected", "1.494898598153247"), (True, "ok", "1.0065241511611824")],
        ids=["uncorrected", "derive"])
    def test_level_at_the_chords_gives_a_flow(self, capsys, tmp_path, derive, status, q_lps):
        # process gave both frames status=dry_chord and no flow; derived, the flow is
        # 0.65% from the simulated 1 L/s
        frames, cfg = tmp_path / "frames.csv", tmp_path / "run.cfg"
        cfg.write_text("fpcf.derive = true\n" if derive else "")
        run(capsys, "simulate", "--flow-lps", "1", "--level-mm", "50", "--frames", "2",
            "--out", str(frames))
        code, out, _ = run(capsys, "process", "--config", str(cfg), "--frames", str(frames))
        assert code == 0
        for line in out.splitlines()[:2]:
            assert f" q_lps={q_lps} status={status} clog=normal" in line

    @pytest.mark.parametrize("spelling", ["X.csv", "./X.csv"])
    def test_out_over_its_own_frames_is_refused(self, capsys, tmp_path, monkeypatch,
                                                spelling):
        # --out was opened, and so emptied, before the first row of --frames was read:
        # the log became one summary line of no frames, and the command exited 0
        monkeypatch.chdir(tmp_path)
        log = (DATA / "mixed_frames.csv").read_bytes()
        (tmp_path / "X.csv").write_bytes(log)
        code, out, err = run(capsys, "process", "--frames", "X.csv", "--out", spelling)
        assert (code, out) == (1, "")
        assert err.startswith("error: --out ") and "--frames" in err
        assert (tmp_path / "X.csv").read_bytes() == log
        assert run(capsys, "process", "--frames", "gone.csv", "--out", spelling) == (
            1, "", "error: [Errno 2] No such file or directory: 'gone.csv'\n")

    def test_out_over_its_own_stdin_is_refused(self, tmp_path):
        # the shell's < opened X, and --out emptied it before the first row was read: the
        # log became one summary line of no frames, and the command exited 0
        log = (DATA / "mixed_frames.csv").read_bytes()
        (tmp_path / "X").write_bytes(log)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(DATA.parents[1] / "src"), os.environ.get("PYTHONPATH")])))

        def process(redirect: str) -> subprocess.CompletedProcess:
            command = f"{shlex.quote(sys.executable)} -m partialflow.cli process {redirect}"
            return subprocess.run(["sh", "-c", command], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=60)

        refused = process("--out X < X")
        assert (refused.returncode, refused.stdout) == (1, "")
        assert refused.stderr == ("error: --out X is the file process reads on stdin; it would "
                                  "be emptied\n")
        assert (tmp_path / "X").read_bytes() == log
        # /dev/null is no regular file: reading and writing it empties nothing
        assert process("--out /dev/null < /dev/null").returncode == 0

    @pytest.mark.parametrize("levels", ["new", "quantized"])
    def test_output_past_the_template_bound_is_the_oracle(self, capsys, tmp_path, levels):
        """More frames than ``LEVELS_KEPT``, each with a new level (the record templates
        are dropped and made again) or with a quantized sensor's level, which comes back
        in frames apart: ``process`` writes one f-string per record of ``process_lines``,
        byte for byte."""
        import random

        from conftest import record_by_record
        from partialflow.config import load_config
        from partialflow.simulator import transit_times

        config = load_config(str(DATA / "mixed_stored.cfg"))
        rng, rows = random.Random(3), [measurement.FRAME_CSV_HEADER]
        for k in range(measurement.LEVELS_KEPT * 3 // 2):
            level = (40.0 + 0.1 * k if levels == "new"
                     else round(130.0 + 90.0 * math.sin(k / 40.0) + rng.gauss(0, 0.3), 1))
            v = rng.uniform(0.0, 0.7)
            for chord in config.chords:
                times = (transit_times(v, chord, 1480.0) if rng.random() > 0.05
                         else (math.nan, 2e-4))
                rows.append(f"{0.5 * k!r},{chord.chord_id},{times[0] * 1e9!r},"
                            f"{times[1] * 1e9!r},{level!r}")
        frames = tmp_path / "frames.csv"
        frames.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "process", "--config", str(DATA / "mixed_stored.cfg"),
                             "--frames", str(frames))
        assert (code, err) == (0, "")
        assert "event=raised" in out and "clog=-" in out
        with open(frames, encoding="utf-8") as fh:
            items = list(measurement.process_lines(fh, config))
        assert len({(i.level, i.clog) for i in items}) > measurement.LEVELS_KEPT
        assert out == record_by_record(items)


class TestCalibrateAndMetrics:
    TRIALS = (
        "segment_id,flow_label,q_ref_lps,q_meas_lps\n"
        "1,2,2.0,2.1\n2,2,2.0,2.12\n1,4,4.0,4.2\n2,4,4.0,4.18\n"
    )

    def test_calibrate(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(self.TRIALS)
        code, out, _ = run(capsys, "calibrate", "--trials", str(trials))
        assert code == 0
        assert out.startswith("calibration.factor = ")
        k = float(out.split("=")[1])
        assert k == pytest.approx(1.0 / 1.05, rel=1e-9)

    @pytest.mark.parametrize("row", ["1,2,2.0,1e-320", "1,2,1e-300,1e300"],
                             ids=["overflow", "underflow"])
    def test_calibrate_refuses_a_factor_no_reader_takes(self, capsys, tmp_path, row):
        # q_ref / q_meas overflowed to inf or underflowed to 0.0: calibrate wrote it and
        # exited 0, and a config holding it, or metrics --k-cal with it, was refused
        trials, out = tmp_path / "trials.csv", tmp_path / "k.cfg"
        trials.write_text(f"segment_id,flow_label,q_ref_lps,q_meas_lps\n{row}\n")
        code, stdout, err = run(capsys, "calibrate", "--trials", str(trials), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: calibration.factor must be finite and positive, got ")
        assert not out.exists()

    TABLE = ("    flow   q_ref_lps   error_pct\n"
             "       2      2.0000      5.5000\n"
             "       4      4.0000      4.7500\n"
             "    FWME                  5.0000\n"
             "  max|E|                  5.5000\n")

    def test_metrics(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(self.TRIALS)
        assert run(capsys, "metrics", "--trials", str(trials)) == (0, self.TABLE, "")

    @pytest.mark.parametrize("command", ["calibrate", "metrics"])
    def test_trials_read_past_a_byte_order_mark(self, capsys, tmp_path, command):
        # "UTF-8 with BOM" exited 1: trial CSV line 1: digit separator in '\ufeffsegment_id'
        trials, bom = tmp_path / "trials.csv", tmp_path / "bom.csv"
        trials.write_text(self.TRIALS, encoding="utf-8")
        bom.write_text(self.TRIALS, encoding="utf-8-sig")
        want = run(capsys, command, "--trials", str(trials))
        assert want[0] == 0 and run(capsys, command, "--trials", str(bom)) == want

    def test_metrics_csv_out(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(self.TRIALS)
        csv_path = tmp_path / "table.csv"
        assert run(capsys, "metrics", "--trials", str(trials), "--csv-out", str(csv_path)) == (
            0, self.TABLE, "")
        assert csv_path.read_text() == ("flow_label,q_ref_lps,error_pct\n2,2.0,5.500000000000005\n"
                                        "4,4.0,4.749999999999998\nFWME,,5.000000000000001\n")

    def test_metrics_means_are_exactly_rounded(self, capsys, tmp_path):
        # 60 segments at each of 4 labels: the mean of sixty 3.1s is 3.1, where a sum
        # added left to right gives 3.0999999999999965 (and Python 3.12's builtin sum 3.1)
        labels = ["2.0", "3.1", "4.4", "5.7"]
        trials = tmp_path / "trials.csv"
        trials.write_text("segment_id,flow_label,q_ref_lps,q_meas_lps\n" + "".join(
            f"{k},{label},{label},{float(label) * (1.0 + 0.001 * (k % 7 - 3))!r}\n"
            for k, label in enumerate(labels * 60)))
        csv_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "metrics", "--trials", str(trials), "--csv-out", str(csv_path))
        assert code == 0
        rows = csv_path.read_text().splitlines()[1:5]
        assert [row.rpartition(",")[0] for row in rows] == [f"{label},{label}" for label in labels]


class TestSimulateCommand:
    def test_seed_reproducibility(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", "--flow-lps", "4", "--frames", "6", "--noise-ns", "2",
            "--seed", "11", "--out", str(a))
        run(capsys, "simulate", "--flow-lps", "4", "--frames", "6", "--noise-ns", "2",
            "--seed", "11", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_default_level_is_baseline(self, capsys):
        code, out, _ = run(capsys, "simulate", "--flow-lps", "2", "--frames", "1")
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",65.0")


class TestExitCodes:
    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense.key = 1\n")
        code, _, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert code == 2
        assert "config error" in err

    def test_missing_config_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "process", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_bad_calibration_factor_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("calibration.factor = -2\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert "config error: calibration.factor must be finite and positive" in err

    @pytest.mark.parametrize("text,message", [
        ("clog.debounce = 0", "clog.debounce must be >= 1"),
        ("clog.intercept_mps = nan", "boundary intercept must be finite"),
        ("clog.debounce = 2.5", "clog.debounce: expected an integer, got '2.5'"),
    ], ids=["debounce_0", "intercept_nan", "debounce_2.5"])
    def test_bad_clogging_setting_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "clog.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert f"config error: {message}" in err

    @pytest.mark.parametrize("text,message", [
        ("entropy.q = inf", "q must be finite and exceed 1, got inf for entropy.q = inf"),
        ("chord.a.height_mm = 50\nchord.a.path_length_m = inf",
         "path length must be finite and positive, got inf for chord.a.path_length_m = inf"),
        ("pipe.diameter_mm = inf",
         "pipe diameter must be finite and positive, got inf for pipe.diameter_mm = inf"),
    ], ids=["q_inf", "path_length_inf", "diameter_inf"])
    @pytest.mark.parametrize("argv", [["fpcf"], ["profile", "--level-mm", "80"],
                                      ["simulate", "--flow-lps", "3"], ["process"]],
                             ids=["fpcf", "profile", "simulate", "process"])
    def test_non_finite_model_or_geometry_exits_2(self, capsys, tmp_path, argv, text, message):
        # q = inf made every v/v_max 1.0, so every FPCF was 1.0; an infinite path wrote
        # inf transit times; an infinite diameter exited 2 with "path length must be
        # positive, got nan", naming no key
        cfg, frames = tmp_path / "model.cfg", tmp_path / "empty.csv"
        cfg.write_text(text + "\n")
        frames.write_text("")
        extra = ["--frames", str(frames)] if argv[0] == "process" else []
        code, out, err = run(capsys, *argv, "--config", str(cfg), *extra)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("text,message", [
        ("fpcf.derive = maybe", "fpcf.derive: expected a boolean, got 'maybe'"),
        ("pipe.diameter_mm =", "line 1: empty key or value"),
    ], ids=["derive_maybe", "diameter_empty"])
    def test_unparsable_value_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "value.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, "fpcf", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    def test_all_zero_chord_weights_exit_2(self, capsys, tmp_path):
        # a lone chord of weight 0 printed status=invalid_times for every frame, with exit 0
        cfg = tmp_path / "weights.cfg"
        cfg.write_text("chord.a.height_mm = 50\nchord.a.weight = 0\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert err == ("config error: every chord weight is 0 (chord.a.weight): "
                       "no chord counts toward the flow\n")

    def test_non_finite_polynomial_exits_2(self, capsys, tmp_path):
        # fpcf.c0 = nan printed fpcf=nan q_lps=nan status=ok with exit 0
        cfg = tmp_path / "poly.cfg"
        cfg.write_text("fpcf.c0 = nan\n" + "".join(f"fpcf.c{k} = 0.0\n" for k in range(1, 7)))
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert err.startswith("config error: FPCF coefficients must be finite")

    @pytest.mark.parametrize("c0,c6,message", [
        (-0.5, 0.0, "fpcf.c0..c6 give FPCF = -0.5 at H = 50 mm"),
        (1e300, 1e300, "fpcf.c0..c6 give FPCF = inf at H = 50 mm"),
    ], ids=["negative", "infinite"])
    def test_non_positive_polynomial_exits_2(self, capsys, tmp_path, c0, c6, message):
        # fpcf.c0 = -0.5 printed fpcf=-0.5 q_lps=-1.92... status=ok, and c0 = c6 = 1e300
        # fpcf=inf, each with exit 0
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(f"fpcf.c0 = {c0}\nfpcf.c6 = {c6}\nfpcf.h_max_mm = 180\n"
                       + "".join(f"fpcf.c{k} = 0.0\n" for k in range(1, 6)))
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert err == f"config error: {message}: a factor must be finite and positive\n"

    @pytest.mark.parametrize("row,message", [
        ("2,4,4.0,nan", "measured flow must be finite"),
        ("2,4,inf,4.0", "reference flow must be finite and positive"),
    ], ids=["meas_nan", "ref_inf"])
    @pytest.mark.parametrize("command", ["metrics", "calibrate"])
    def test_non_finite_trial_flow_exits_1(self, capsys, tmp_path, command, row, message):
        # metrics printed FWME nan and calibrate a factor for a nan measured flow
        trials = tmp_path / "trials.csv"
        trials.write_text(f"1,2,2.0,2.02\n1,4,4.0,4.05\n{row}\n")
        code, out, err = run(capsys, command, "--trials", str(trials))
        assert (code, out) == (1, "")
        assert f"error: trial CSV line 3: {message}" in err

    @pytest.mark.parametrize("row", ["1_0,2,2.0,2.1", "2,2,2_0,2.1", "2,2,2.0,2_1"],
                             ids=["segment", "q_ref", "q_meas"])
    @pytest.mark.parametrize("command", ["metrics", "calibrate"])
    def test_digit_separator_in_a_trial_exits_1(self, capsys, tmp_path, command, row):
        # int() and float() read 1_0 as 10 and 2_0 as 20: calibrate printed k_cal 5.79
        trials = tmp_path / "trials.csv"
        trials.write_text(f"1,2,2.0,2.02\n{row}\n1,flow_4,4.0,4.05\n")
        code, out, err = run(capsys, command, "--trials", str(trials))
        field = next(f for f in row.split(",") if "_" in f)
        assert (code, out, err) == (1, "", f"error: trial CSV line 2: digit separator in "
                                           f"{field!r}\n")

    @pytest.mark.parametrize("argv", [
        ["metrics", "--k-cal", "1_0"], ["simulate", "--flow-lps", "3", "--level-mm", "8_2.5"],
        ["simulate", "--flow-lps", "3_0"], ["simulate", "--flow-lps", "3", "--seed", "1_1"],
        ["simulate", "--flow-lps", "3", "--frames", "1_0"],
        ["simulate", "--flow-lps", "3", "--interval", "0_5"],
        ["simulate", "--flow-lps", "3", "--noise-ns", "0_5"],
        ["profile", "--level-mm", "8_0"], ["profile", "--level-mm", "80", "--nx", "1_1"],
        ["profile", "--level-mm", "80", "--ny", "1_1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_digit_separator_in_a_number_flag_exits_2(self, capsys, argv):
        # metrics --k-cal 1_0 printed a 950% error and simulate --level-mm 8_2.5 ran at
        # 82.5 mm, both with exit 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        kind = "int" if argv[-2] in ("--seed", "--frames", "--nx", "--ny") else "float"
        assert f"argument {argv[-2]}: invalid {kind} value: {argv[-1]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "calibrate"])
    def test_empty_flow_label_exits_1(self, capsys, tmp_path, command):
        # metrics printed a row with a blank label and exited 0
        trials = tmp_path / "trials.csv"
        trials.write_text("1,2,2.0,2.02\n1, ,2.0,2.1\n")
        code, out, err = run(capsys, command, "--trials", str(trials))
        message = "error: trial CSV line 2: flow_label must not be empty\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("argv", [
        ["metrics", "--k-cal", "nan"], ["metrics", "--k-cal", "0"], ["metrics", "--k-cal", "-1"],
        ["simulate", "--flow-lps", "nan", "--level-mm", "80"],
        ["simulate", "--flow-lps", "3", "--noise-ns", "nan"],
        ["simulate", "--flow-lps", "3", "--interval", "nan"],
        ["simulate", "--flow-lps", "3", "--interval", "0"],
        ["simulate", "--flow-lps", "3", "--interval", "-1"],
    ], ids=["k_cal_nan", "k_cal_0", "k_cal_neg", "flow_nan", "noise_nan", "interval_nan",
            "interval_0", "interval_neg"])
    def test_non_finite_or_non_positive_input_exits_1(self, capsys, tmp_path, argv):
        trials = tmp_path / "trials.csv"
        trials.write_text("1,2,2.0,2.02\n1,4,4.0,4.05\n")
        extra = ["--trials", str(trials)] if argv[0] == "metrics" else []
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert "must be finite" in err

    @pytest.mark.parametrize("argv,message", [
        (["--flow-lps", "nan"], "flow_lps must be finite and non-negative, got nan"),
        (["--flow-lps", "inf", "--level-mm", "80"],
         "flow_lps must be finite and non-negative, got inf"),
        (["--flow-lps", "-1"], "flow_lps must be finite and non-negative, got -1.0"),
        (["--flow-lps", "3", "--noise-ns", "inf"],
         "--noise-ns must be finite and non-negative, got inf"),
        (["--flow-lps", "3", "--noise-ns", "nan"],
         "--noise-ns must be finite and non-negative, got nan"),
    ], ids=["flow_nan", "flow_inf", "flow_neg", "noise_inf", "noise_nan"])
    def test_simulate_names_the_refused_field(self, capsys, argv, message):
        # a non-finite flow or noise printed the whole ScenarioSpec(...) record
        assert run(capsys, "simulate", *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("noise", ["-1", "-0.25"])
    def test_negative_noise_is_refused_as_typed(self, capsys, noise):
        # --noise-ns -1 said "noise_sigma_s must be finite and non-negative, got -1e-09":
        # a field and a unit, seconds, that the command line does not use
        message = f"error: --noise-ns must be finite and non-negative, got {noise}\n"
        assert run(capsys, "simulate", "--flow-lps", "3", "--noise-ns", noise) == (1, "", message)

    def test_missing_input_file_exits_1(self, capsys):
        code, _, _ = run(capsys, "metrics", "--trials", "/nonexistent.csv")
        assert code == 1

    @pytest.mark.parametrize("text,message", [
        ("chord.a.height_mm = 50\nchord.a.weight = inf", "chord weight must be finite"),
        ("chord.a.height_mm = 50\nchord.a.weight = nan", "chord weight must be finite"),
        ("chord.a.height_mm = nan\nchord.a.path_length_m = 0.3",
         "chord height must be finite and positive"),
        ("chord.a.height_mm = -20\nchord.a.path_length_m = 0.3",
         "chord height must be finite and positive"),
        ("chord.a.height_mm = 300\nchord.a.path_length_m = 0.3",
         "chord.a.height_mm = 300 lies above the pipe crown at 250 mm"),
        ("chord.a.height_mm = 50\nchord.a.path_length_m = inf",
         "path length must be finite and positive, got inf for chord.a.path_length_m"),
    ], ids=["weight_inf", "weight_nan", "height_nan", "height_negative", "height_above_crown",
            "path_length_inf"])
    def test_bad_chord_exits_2(self, capsys, tmp_path, text, message):
        # weight = inf printed q_lps=nan with exit 0, a nan height made every frame
        # dry_chord, and a negative height counted the chord as wet
        cfg = tmp_path / "chord.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("text,message", [
        ("fpcf.derive = true\nfpcf.step_mm = 0", "fpcf.step_mm must be finite and positive"),
        ("fpcf.derive = true\nfpcf.step_mm = nan", "fpcf.step_mm must be finite and positive"),
        ("fpcf.derive = true\nfpcf.h_max_mm = inf", "fpcf.h_max_mm must be finite"),
        ("fpcf.derive = true\nfpcf.h_max_mm = 40", "fpcf.h_max_mm = 40 lies below fpcf.h_min_mm"),
        ("fpcf.derive = true\nfpcf.h_max_mm = 260",
         "fpcf.h_max_mm = 260 lies above the pipe crown at 250 mm"),
        ("fpcf.step_mm = 0", "fpcf.step_mm must be finite and positive"),
        ("fpcf.h_max_mm = 300", "fpcf.h_max_mm = 300 lies above the pipe crown at 250 mm"),
    ], ids=["step_0", "step_nan", "h_max_inf", "h_max_below_h_min", "h_max_above_crown",
            "step_0_uncorrected", "h_max_above_crown_uncorrected"])
    def test_bad_fpcf_range_exits_2(self, capsys, tmp_path, text, message):
        # with derive these exited 1 from the tabulation (above the crown as "water
        # level 0.26 m exceeds pipe diameter 0.25 m"); without it they exited 0
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("text,message", [
        ("fpcf.derive = true\nfpcf.h_max_mm = 100", "fpcf.derive = true needs more than 6 "
         "levels, got 6 from fpcf.h_min_mm = 50, fpcf.h_max_mm = 100 and fpcf.step_mm = 10"),
        ("".join(f"fpcf.c{k} = 1.0\n" for k in range(7)) + "fpcf.h_max_mm = 50",
         "fpcf.c0..c6 need fpcf.h_max_mm above fpcf.h_min_mm = 50"),
    ], ids=["derive", "coefficients"])
    @pytest.mark.parametrize("command", ["process", "fpcf"])
    def test_range_too_small_for_a_polynomial_exits_2(self, capsys, tmp_path, command, text,
                                                      message):
        # derive exited 1 after tabulating, with "error: need more than 6 samples for a
        # degree-6 fit, got 6"; coefficients said "invalid validity range [50.0, 50.0]"
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("command", ["process", "fpcf"])
    def test_level_with_no_fpcf_exits_2(self, capsys, tmp_path, command):
        # a chord at 30 mm has a negative chord mean at 250 mm: the config passed its
        # checks and the table then exited 1 naming no key
        cfg = tmp_path / "low.cfg"
        cfg.write_text("chord.a.height_mm = 30\nfpcf.h_min_mm = 30\nfpcf.derive = true\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("config error: FPCF tabulation failed at H = 250 mm: ")
        assert err.endswith("; the chord at 30 mm needs fpcf.h_max_mm (250) below that level\n")
        cfg.write_text("chord.a.height_mm = 30\nfpcf.h_min_mm = 30\nfpcf.derive = true\n"
                       "fpcf.h_max_mm = 240\n")
        assert run(capsys, "fpcf", "--config", str(cfg))[0] == 0

    def test_fpcf_range_below_uncorrected_chord_exits_2(self, capsys, tmp_path):
        # process accepts the config, which corrects nothing; fpcf exited 1 with
        # "error: tabulation start 50 mm is below the chord height 80 mm", naming no key
        cfg, frames = tmp_path / "chord80.cfg", tmp_path / "empty.csv"
        cfg.write_text("chord.a.height_mm = 80\n")
        frames.write_text("")
        assert run(capsys, "process", "--config", str(cfg), "--frames", str(frames))[0] == 0
        code, out, err = run(capsys, "fpcf", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "config error: fpcf.h_min_mm = 50 lies below the lowest chord at 80 mm\n"

    def test_small_pipe_without_chords_names_the_default_chord(self, capsys, tmp_path):
        # the default chords skipped the chord checks, and the wall-to-wall formula
        # gave "chord height 0.05 outside [0, 0.04]" in metres with no key
        cfg = tmp_path / "small.cfg"
        cfg.write_text("pipe.diameter_mm = 40\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert err == "config error: chord.a.height_mm = 50 lies above the pipe crown at 40 mm\n"

    @pytest.mark.parametrize("noise", ["0", "1"], ids=["quiet", "noisy"])
    def test_negative_seed_exits_1(self, capsys, noise):
        # with noise numpy's "expected non-negative integer" named no flag; without
        # it the seed was never used and the run exited 0
        code, out, err = run(capsys, "simulate", "--flow-lps", "3", "--seed", "-1",
                             "--noise-ns", noise)
        assert (code, out) == (1, "")
        assert err == "error: seed must be non-negative, got -1\n"

    def test_degenerate_profile_simulate_exits_1(self, capsys, tmp_path):
        # the area mean is negative here, and simulate divided by an FPCF of -5.48:
        # exit 0, with t_up > t_down written for a positive flow
        cfg = tmp_path / "m03.cfg"
        cfg.write_text("entropy.m = 0.3\n")
        code, out, err = run(capsys, "simulate", "--config", str(cfg), "--flow-lps", "2",
                             "--level-mm", "50")
        assert (code, out) == (1, "")
        assert err.startswith("error: FPCF undefined at Y=0.05 m, H=0.05 m: area mean -")
        assert err.endswith(" is not finite and positive\n")

    def test_degenerate_profile_profile_exits_1(self, capsys, tmp_path):
        # the profile command printed v_norm -2.02 at the bed centre for this model,
        # which fpcf() and simulate refuse, and exited 0
        cfg = tmp_path / "m03.cfg"
        cfg.write_text("entropy.m = 0.3\n")
        code, out, err = run(capsys, "profile", "--config", str(cfg), "--level-mm", "50")
        assert (code, out) == (1, "")
        assert err.startswith("error: profile undefined at H=0.05 m: area mean -")
        assert err.endswith(" is not finite and positive\n")
        code, out, err = run(capsys, "profile", "--level-mm", "0")
        assert (code, out, err) == (1, "", "error: area mean undefined for an empty pipe\n")

    @pytest.mark.parametrize("level", ["nan", "inf", "300"])
    def test_zero_flow_simulate_checks_the_level(self, capsys, level):
        # at zero flow no FPCF is computed, and rows were written at any level
        code, out, err = run(capsys, "simulate", "--flow-lps", "0", "--level-mm", level)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


def test_literals_match_their_enums():
    """The CLI writes out the weir modes rather than load the simulator to build its
    parser."""
    from partialflow import cli
    from partialflow.simulator import WeirMode

    assert list(cli._WEIR_TEXT) == [m.value for m in WeirMode]


def test_fpcf_of_a_config_fits_the_polynomial_process_derives(capsys, tmp_path):
    """``fpcf --config X | fit`` tabulates over the config's ``fpcf.*`` range, so it
    prints the polynomial that ``process --config X`` derives; it used 50-250 by 10."""
    from partialflow.config import format_fit_document, load_config, resolve_polynomial

    cfg, table = tmp_path / "range.cfg", tmp_path / "table.csv"
    cfg.write_text("fpcf.derive = true\nfpcf.h_min_mm = 60\nfpcf.h_max_mm = 200\n"
                   "fpcf.step_mm = 20\n")
    code, out, _ = run(capsys, "fpcf", "--config", str(cfg))
    assert code == 0 and len(out.splitlines()) == 1 + 8
    table.write_text(out)
    code, doc, _ = run(capsys, "fit", "--table", str(table))
    assert code == 0
    assert doc == format_fit_document(resolve_polynomial(load_config(str(cfg)))[1])


@pytest.mark.parametrize("with_poly", [True, False], ids=["polynomial", "uncorrected"])
def test_chunk_formatter_matches_record_by_record(capsys, tmp_path, with_poly):
    """The templated records of ``process`` against one f-string per record: every
    status, an alarm raised and cleared, every diagnostic kind, an out-of-pipe level,
    a 0.0 level then a -0.0 one, byte for byte."""
    import io

    from partialflow import (ChordReading, FpcfPolynomial, ScenarioSpec, SensorFrame, WeirMode,
                             baseline_level_mm, default_config, generate, write_frame_rows)
    from partialflow.config import format_fit_document, parse_config
    from partialflow.fpcf import FitResult
    from partialflow.measurement import process_lines

    from conftest import record_by_record

    config = default_config()
    frames = []
    for flow, weir, count in [(4.0, WeirMode.NONE, 300), (3.0, WeirMode.WEIR1, 12),
                              (4.0, WeirMode.NONE, 600)]:
        spec = ScenarioSpec(flow_lps=flow, level_mm=baseline_level_mm(flow), weir=weir,
                            noise_sigma_s=1e-9, seed=len(frames), frame_count=count)
        for f in generate(spec, config.chords, config.pipe, config.params, config.quad):
            frames.append(SensorFrame(float(len(frames)), f.readings, f.level_mm))
    # dry, dry at 0.0 then -0.0, outside the pipe, above the polynomial's range
    for k, level in [(10, 40.0), (11, 0.0), (12, -0.0), (13, 300.0), (15, 200.0)]:
        frames[k] = SensorFrame(float(k), frames[k].readings, level)
    frames[14] = SensorFrame(14.0, tuple(ChordReading(r.chord_id, -r.t_up_s, r.t_down_s)
                                         for r in frames[14].readings), frames[14].level_mm)
    buf = io.StringIO()
    write_frame_rows(frames, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    ts, chord, t_up, t_down, level = lines[41].split(",")
    # unknown chord, duplicate row, level differing within a frame, a comment
    lines[42:42] = [f"{ts},z,{t_up},{t_down},{level}", lines[41],
                    f"{ts},b,{t_up},{t_down},{float(level) + 1.0!r}\n",
                    "broken row\n", "x,a,1,2,85.0\n", "# comment\n"]
    csv = tmp_path / "frames.csv"
    csv.write_text("".join(lines))
    cfg = tmp_path / "run.cfg"
    poly = FpcfPolynomial((0.6, 4e-3, -1e-5, 0.0, 0.0, 0.0, 0.0), 50.0, 180.0)
    cfg.write_text(format_fit_document(FitResult(poly, 0.0, 0.0)) if with_poly else "")

    assert main(["process", "--config", str(cfg), "--frames", str(csv)]) == 0
    out = capsys.readouterr().out
    with csv.open() as fh:
        want = record_by_record(process_lines(fh, parse_config(cfg.read_text())))
    # the first differing record, not a diff of two 2,000-line texts
    assert next(((k, a, b) for k, (a, b) in enumerate(
        zip_longest(out.splitlines(True), want.splitlines(True))) if a != b), None) is None
    statuses = ["ok", "fpcf_out_of_range"] if with_poly else ["uncorrected"]
    for text in [*(f"status={s} " for s in statuses + ["dry_chord", "invalid_times"]),
                 "event=raised", "event=cleared", "level_mm=0.0 ", "level_mm=-0.0 ",
                 "is not within the pipe", "unknown chord id", "duplicate row for chord",
                 "differs from the frame's first row", "expected 5 fields", "unparseable row"]:
        assert text in out, text


@pytest.mark.parametrize("polynomial", ["stored", "none", "derive"])
def test_process_output_of_the_mixed_log_is_unchanged(capsys, polynomial):
    """``data/mixed_frames.csv`` holds none, weir1 and weir2 segments, NaN and infinite
    transit times, zero and negative ones, a duplicate row, an unknown chord, level
    changes within a frame (a nan one too), out-of-pipe, dry, -0.0, 0.0, nan and
    infinite levels, non-finite and signed-zero timestamps, malformed, blank and comment
    lines and repeated headers. ``process`` writes, byte for byte, the output stored
    beside it, with a stored polynomial, none (uncorrected) and a derived one: what the
    numpy frame path wrote, except that line 211, ``1_0,a,1,2,3``, is a diagnostic
    where ``float`` read a frame at ts 10.0, and that the derived polynomial, tabulated
    by the plain-float rule and fitted by QR, moves each ``fpcf`` and ``q_lps`` by up
    to 8.8e-9 relative."""
    config = [] if polynomial == "none" else ["--config", str(DATA / f"mixed_{polynomial}.cfg")]
    code, out, err = run(capsys, "process", *config, "--frames", str(DATA / "mixed_frames.csv"))
    assert (code, err) == (0, "")
    want = (DATA / f"mixed_frames_{polynomial}.out").read_text(encoding="utf-8")
    assert next(((k, a, b) for k, (a, b) in enumerate(
        zip_longest(out.splitlines(True), want.splitlines(True))) if a != b), None) is None


@pytest.mark.parametrize("bom", ["frames", "config"])
def test_process_reads_past_a_byte_order_mark(capsys, tmp_path, bom):
    """A file saved as "UTF-8 with BOM" reads as the same file without one: the frame CSV
    gave a line-1 ``unparseable row`` diagnostic, and the config, which opens with a
    comment, exited 2 with ``line 1: expected 'key = value'``."""
    paths = {"frames": DATA / "mixed_frames.csv", "config": DATA / "mixed_stored.cfg"}
    text = paths[bom].read_text(encoding="utf-8")
    paths[bom] = tmp_path / paths[bom].name
    paths[bom].write_text(text, encoding="utf-8-sig")
    code, out, err = run(capsys, "process", "--config", str(paths["config"]),
                         "--frames", str(paths["frames"]))
    assert (code, err) == (0, "")
    assert out == (DATA / "mixed_frames_stored.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("command,flag,path", [
    ("process", "--frames", DATA / "mixed_frames.csv"),
    ("fit", "--table", DATA / "fpcf_default.csv"),
    ("calibrate", "--trials", None),
    ("metrics", "--trials", None),
])
def test_stdin_reads_past_a_byte_order_mark(capsys, monkeypatch, tmp_path, command, flag, path):
    """Input piped with a byte-order mark reads as the same file without one: process
    gave a line-1 ``unparseable row`` diagnostic, and fit, calibrate and metrics exited 1
    at line 1 with a digit separator in the header's first field."""
    if path is None:
        path = tmp_path / "trials.csv"
        path.write_text(TestCalibrateAndMetrics.TRIALS, encoding="utf-8")
    want = run(capsys, command, flag, str(path))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(
        b"\xef\xbb\xbf" + path.read_bytes())))
    assert want[0] == 0 and run(capsys, command) == want


def test_a_chord_id_no_frame_row_can_carry_exits_2(capsys, tmp_path):
    """``chord. a .height_mm = 50`` loaded: ``process`` dropped every row of the chord as
    an ``unknown chord id`` and exited 0, and ``simulate`` wrote `` a `` rows."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chord. a .height_mm = 50\n")
    for command in (["process", "--frames", str(DATA / "mixed_frames.csv")],
                    ["simulate", "--flow-lps", "3"]):
        assert run(capsys, *command, "--config", str(cfg)) == (
            2, "", "config error: chord id ' a ' cannot be read from a frame row: an id is "
                   "non-empty, without commas, line breaks or end spaces\n")


@pytest.mark.parametrize("weight", [2.0 ** -498, 2.0 ** 498], ids=["smallest", "largest"])
def test_chord_weights_at_their_bounds_print_the_mixed_log_as_it_stands(capsys, tmp_path,
                                                                        weight):
    """Only the weights' ratios count: equal powers of two near 1e-150 and 1e150, the
    bounds ``RunConfig`` keeps them in, print what weights of 1 print, byte for byte."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text((DATA / "mixed_stored.cfg").read_text()
                   + WEIGHTS.format(a=repr(weight), b=repr(weight)))
    code, out, err = run(capsys, "process", "--config", str(cfg),
                         "--frames", str(DATA / "mixed_frames.csv"))
    assert (code, err) == (0, "")
    assert out == (DATA / "mixed_frames_stored.out").read_text(encoding="utf-8")


def underscore_ids(tmp_path, polynomial):
    """``data/mixed_frames.csv`` with the chord fields ``a``, ``b`` and ``z`` renamed
    ``path_a``, ``path_b`` and ``path_z`` (a padded one keeps its spaces), and the config
    of ``polynomial`` with ``path_a`` and ``path_b`` in place of the default chords."""
    lines = []
    for line in (DATA / "mixed_frames.csv").read_text(encoding="utf-8").splitlines(True):
        fields = line.split(",")
        if len(fields) == 5 and fields[1].strip() in ("a", "b", "z"):
            fields[1] = fields[1].replace(fields[1].strip(), "path_" + fields[1].strip())
        lines.append(",".join(fields))
    frames, cfg = tmp_path / "frames.csv", tmp_path / "run.cfg"
    frames.write_text("".join(lines), encoding="utf-8")
    stored = "" if polynomial == "none" else (DATA / f"mixed_{polynomial}.cfg").read_text()
    cfg.write_text(stored + "chord.path_a.height_mm = 50\nchord.path_b.height_mm = 50\n")
    return str(frames), str(cfg)


@pytest.mark.parametrize("polynomial", ["stored", "none", "derive"])
def test_underscore_chord_ids_print_the_mixed_log_as_it_stands(capsys, tmp_path, polynomial):
    """Chord ids holding ``_`` read as any others: the mixed log with its chords renamed
    prints the stored output, but for the three diagnostics that name a chord."""
    frames, cfg = underscore_ids(tmp_path, polynomial)
    code, out, err = run(capsys, "process", "--config", cfg, "--frames", frames)
    assert (code, err) == (0, "")
    stored = (DATA / f"mixed_frames_{polynomial}.out").read_text(encoding="utf-8")
    want = [re.sub(r"chord (id )?'([abz])'", r"chord \1'path_\2'", line)
            for line in stored.splitlines(True)]
    assert sum(a != b for a, b in zip(want, stored.splitlines(True))) == 3
    assert next(((k, a, b) for k, (a, b) in enumerate(
        zip_longest(out.splitlines(True), want)) if a != b), None) is None


def test_underscore_chord_ids_skip_the_digit_separator_rule(capsys, tmp_path, monkeypatch):
    """A row is parsed by ``_decimal``'s rule only when a numeric field holds ``_``: in
    the renamed mixed log, the three headers (``timestamp_s``) and line 211 (``1_0``),
    each refused at its first field, and no ``path_`` row."""
    calls = []

    def counted(convert, text):
        calls.append(text)
        return _decimal(convert, text)

    monkeypatch.setattr(measurement, "_decimal", counted)
    frames, cfg = underscore_ids(tmp_path, "stored")
    assert run(capsys, "process", "--config", cfg, "--frames", frames)[0] == 0
    assert calls == ["timestamp_s", "1_0", "Timestamp_s", "timestamp_s"]


VANISHING_CHORD = ("chord.a.height_mm = 1e-297\nchord.a.path_length_m = 0.3\n"
                   "fpcf.h_min_mm = 1e-297\n")
VANISHING_FPCF = ("config error: FPCF tabulation failed at H = 1e-297 mm: area mean undefined "
                  "for an empty pipe; the profile (entropy.m = 0.89, entropy.q = 1.15) gives "
                  "none at the first level, fpcf.h_min_mm (1e-297)")
WEIGHTS = ("chord.a.height_mm = 50\nchord.a.weight = {a}\n"
           "chord.b.height_mm = 50\nchord.b.weight = {b}\n")
WEIGHTS_LINE = ("config error: chord weights (chord.a.weight, chord.b.weight) must each be 0 or "
                "from 1e-150 to 1e150: past that, a weight times a frame's velocity can "
                "overflow or lose digits")
STEP_LINE = "config error: fpcf.step_mm = {} gives the FPCF table over 100000 levels"

HOSTILE = {  # id: (config text or None, argv, exit code, the one line on stderr)
    # a level whose wetted angle rounds to 0 has no area: each ended in ZeroDivisionError
    "profile_vanishing_level": (None, ["profile", "--level-mm", "1e-297"], 1,
                                "error: area mean undefined for an empty pipe"),
    "fpcf_vanishing_chord": (VANISHING_CHORD, ["fpcf"], 2, VANISHING_FPCF),
    "process_derives_at_a_vanishing_chord": (VANISHING_CHORD + "fpcf.derive = true\n",
                                             ["process", "--frames", "{empty}"], 2,
                                             VANISHING_FPCF),
    "simulate_vanishing_level": (VANISHING_CHORD, ["simulate", "--flow-lps", "3", "--level-mm",
                                                   "1e-296"], 1,
                                 "error: area mean undefined for an empty pipe"),
    # a negative number that argparse's pattern misses was taken for an option
    "noise_minus_inf": (None, ["simulate", "--flow-lps", "3", "--noise-ns", "-inf"], 1,
                        "error: --noise-ns must be finite and non-negative, got -inf"),
    "noise_minus_nan": (None, ["simulate", "--flow-lps", "3", "--noise-ns", "-nan"], 1,
                        "error: --noise-ns must be finite and non-negative, got nan"),
    "level_exponent": (None, ["simulate", "--flow-lps", "3", "--level-mm", "-1e3"], 1,
                       "error: water level must be finite, non-negative, got -1.0 "
                       "for --level-mm -1000"),
    "k_cal_minus_inf": (None, ["metrics", "--trials", "{trials}", "--k-cal", "-inf"], 1,
                        "error: k_cal must be finite and positive, got -inf"),
    "k_cal_trailing_dot": (None, ["metrics", "--trials", "{trials}", "--k-cal", "-1."], 1,
                           "error: k_cal must be finite and positive, got -1.0"),
    "nx_exponent": (None, ["profile", "--level-mm", "100", "--nx", "-1e3"], 2,
                    "partialflow profile: error: argument --nx: invalid int value: '-1e3'"),
    # a refused --level-mm was given in metres and not named
    "profile_level_above_the_crown": (None, ["profile", "--level-mm", "300"], 1,
                                      "error: water level 0.3 m exceeds pipe diameter 0.25 m "
                                      "for --level-mm 300"),
    "simulate_level_above_the_crown": (None, ["simulate", "--flow-lps", "3", "--level-mm", "300"],
                                       1, "error: water level 0.3 m exceeds pipe diameter 0.25 m "
                                       "for --level-mm 300"),
    "profile_negative_level": (None, ["profile", "--level-mm=-1e3"], 1,
                               "error: water level must be finite, non-negative, got -1.0 "
                               "for --level-mm -1000"),
    # the derived path was refused "for " and no key
    "derived_path_underflows": ("chord.a.height_mm = 1e-298\n", ["process", "--frames",
                                                                 "{empty}"], 2,
                                "config error: path length must be finite and positive, got "
                                "0.0 for chord.a.height_mm = 1e-298"),
    # 12 of 30 frames were written at ts=inf, each of whose rows process drops
    "interval_overflows": (None, ["simulate", "--flow-lps", "3", "--interval", "1e307",
                                  "--frames", "30"], 1,
                           "error: last timestamp (frame count - 1) * frame interval must be "
                           "finite, got 29 * 1e+307"),
    # a baseline level that the flow puts past the crown, or at inf, named no flag
    "flow_past_the_crown": (None, ["simulate", "--flow-lps", "1e10"], 1,
                            "error: water level 8.75e+07 m exceeds pipe diameter 0.25 m "
                            "for --flow-lps 1e+10"),
    "flow_level_overflows": (None, ["simulate", "--flow-lps", "1e308"], 1,
                             "error: water level must be finite, non-negative, got inf "
                             "for --flow-lps 1e+308"),
    # the weights' sum overflowed, or a subnormal weight lost v: q_lps=0.0 status=ok and an alarm
    "weights_sum_overflows": (WEIGHTS.format(a="1e308", b="1e308"), ["process", "--frames",
                                                                     "{empty}"], 2, WEIGHTS_LINE),
    "weight_subnormal": (WEIGHTS.format(a="5e-324", b="0"), ["process", "--frames", "{empty}"],
                         2, WEIGHTS_LINE),
    # finite sum, but a frame on chord b faster than ~2 m/s gave v_line = inf, a diagnostic
    "weight_times_velocity_overflows": (WEIGHTS.format(a="2.2250738585072014e-308", b="8.98e307"),
                                        ["process", "--frames", "{empty}"], 2, WEIGHTS_LINE),
    # with no polynomial, fpcf met no bound on its levels: a traceback, or a list without end
    "fpcf_subnormal_step": ("fpcf.step_mm = 5e-324\n", ["fpcf"], 2,
                            STEP_LINE.format("4.94066e-324")),
    "fpcf_tiny_step": ("fpcf.step_mm = 1e-300\n", ["fpcf"], 2, STEP_LINE.format("1e-300")),
    "fpcf_fine_step": ("fpcf.step_mm = 0.001\n", ["fpcf"], 2, STEP_LINE.format("0.001")),
    # OverflowError: int too large to convert to float
    "frames_past_a_float": (None, ["simulate", "--flow-lps", "3", "--frames", "1" + "0" * 310],
                            1, "error: frame count must fit in a float, got 1" + "0" * 310),
    # "measured flow must be finite, got inf": the product, which no input holds
    "k_cal_times_flow_overflows": (None, ["metrics", "--trials", "{huge}", "--k-cal", "10"], 1,
                                   "error: k_cal * q_meas_lps must be finite, got 10.0 * "
                                   "1e+308 (segment 1, flow 2)"),
}


def _main_exit(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own refusal
        return exc.code


@pytest.mark.parametrize("text,argv,code,line", HOSTILE.values(), ids=HOSTILE)
def test_hostile_input_is_refused_in_one_line(capsys, tmp_path, text, argv, code, line):
    """Each refusal exits 1 or 2 with nothing on stdout and one line on stderr, within a
    second, with no exception out of ``main``; each flag given as ``--flag value`` does
    exactly as ``--flag=value``. Only argparse's own refusal prints its usage first."""
    (tmp_path / "trials.csv").write_text("1,2,2.0,2.02\n1,4,4.0,4.05\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "huge.csv").write_text("1,2,2.0,1e308\n")
    argv = [a.format(trials=tmp_path / "trials.csv", empty=tmp_path / "empty.csv",
                     huge=tmp_path / "huge.csv") for a in argv]
    if text is not None:
        (tmp_path / "run.cfg").write_text(text)
        argv[1:1] = ["--config", str(tmp_path / "run.cfg")]
    joined = []
    for arg in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] and arg[:2] != "--":
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    results = []
    for form in (argv, joined):
        start = time.perf_counter()
        results.append((_main_exit(form), *capsys.readouterr()))
        assert time.perf_counter() - start < 1.0
    assert results[0] == results[1]
    got, out, err = results[0]
    assert (got, out) == (code, "")
    if line.startswith("partialflow "):  # argparse's own refusal
        assert err.startswith("usage: partialflow ") and err.endswith(f"\n{line}\n")
    else:
        assert err == f"{line}\n"
