from itertools import zip_longest

import pytest

from partialflow.cli import main

DERIVE_CFG = "fpcf.derive = true\nfpcf.h_max_mm = 180\n"


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

    @pytest.mark.parametrize("row", ["60,inf", "nan,1.0"], ids=["fpcf_inf", "level_nan"])
    def test_fit_rejects_non_finite_row(self, capsys, tmp_path, row):
        # 60,inf printed seven nan coefficients with exit 0; a nan level also
        # printed LAPACK noise on stderr
        table = tmp_path / "table.csv"
        table.write_text("H_mm,fpcf\n" + "".join(f"{h},1.0\n" for h in range(50, 130, 10))
                         + row + "\n")
        code, out, err = run(capsys, "fit", "--table", str(table))
        assert (code, out) == (1, "")
        assert err == "error: fpcf table line 10: level and FPCF must be finite\n"

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
        # guards start-up latency: records must follow a bounded read-ahead,
        # never a parse of the whole input
        import io
        import sys

        from partialflow.measurement import CHUNK_ROWS_CAP

        sim = tmp_path / "frames.csv"
        main(["simulate", "--flow-lps", "4", "--frames", "4000", "--out", str(sim)])
        text = sim.read_text().splitlines(keepends=True)
        assert len(text) > 3 * CHUNK_ROWS_CAP
        consumed = 0

        def counting():
            nonlocal consumed
            for line in text:
                consumed += 1
                yield line

        class Recorder(io.StringIO):
            at_first_frame = None

            def write(self, s):
                if self.at_first_frame is None and s.startswith("frame "):
                    self.at_first_frame = consumed
                return super().write(s)

        out = Recorder()
        monkeypatch.setattr(sys, "stdin", counting())
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["process", "--frames", "-"]) == 0
        assert consumed == len(text)
        assert out.at_first_frame is not None
        assert out.at_first_frame <= CHUNK_ROWS_CAP
        assert out.getvalue().count("\nframe ") == 3999

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

    def test_metrics(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(self.TRIALS)
        code, out, _ = run(capsys, "metrics", "--trials", str(trials))
        assert code == 0
        assert "FWME" in out

    def test_metrics_csv_out(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(self.TRIALS)
        csv_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "metrics", "--trials", str(trials), "--csv-out", str(csv_path))
        assert code == 0
        assert csv_path.read_text().startswith("flow_label,q_ref_lps,error_pct")


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
    ], ids=["debounce_0", "intercept_nan"])
    def test_bad_clogging_setting_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "clog.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, "process", "--config", str(cfg), "--frames", "-")
        assert (code, out) == (2, "")
        assert f"config error: {message}" in err

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
    ], ids=["k_cal_nan", "k_cal_0", "k_cal_neg", "flow_nan", "noise_nan", "interval_nan"])
    def test_non_finite_or_non_positive_input_exits_1(self, capsys, tmp_path, argv):
        trials = tmp_path / "trials.csv"
        trials.write_text("1,2,2.0,2.02\n1,4,4.0,4.05\n")
        extra = ["--trials", str(trials)] if argv[0] == "metrics" else []
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (1, "")
        assert "must be finite" in err

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
    ], ids=["weight_inf", "weight_nan", "height_nan", "height_negative", "height_above_crown"])
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
    """The CLI writes out the weir modes rather than load the simulator to build its parser;
    the clogging texts come from the verdicts, in the order of FrameChunk.clog's codes."""
    from partialflow import cli
    from partialflow.clogging import Verdict
    from partialflow.simulator import WeirMode

    assert list(cli._WEIR_TEXT) == [m.value for m in WeirMode]
    assert cli._CLOG_TEXT == (Verdict.NORMAL.value, Verdict.CLOGGING.value, "-")
    assert cli._CLOG_TEXT == ("normal", "clogging", "-")


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


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_by_record(lines, config) -> str:
    """``process`` output as the per-frame formatter wrote it, one f-string per
    record, from the same estimates: the oracle for the chunk-wise formatter."""
    from partialflow.clogging import Verdict
    from partialflow.measurement import STATUSES, FrameDiagnostic, process_lines

    out, frames_seen, diagnostics, raised, cleared = [], 0, 0, 0, 0
    for chunk in process_lines(lines, config):
        events, misfits = dict(chunk.events), dict(chunk.misfits)
        diags, items = sorted(chunk.diags, key=lambda d: (d[0], d[1])), []
        columns = zip(*(column.tolist() for column in chunk[:8]))
        for f, (ts, level, v, area, fpcf, flow, status, clog) in enumerate(columns):
            items += [d for pos, _, d in diags if pos == f]
            judged = clog != 2
            items.append(misfits.get(f) or (
                ts, level, v if judged else None, area, fpcf, flow if judged else None,
                STATUSES[status], (Verdict.NORMAL, Verdict.CLOGGING, None)[clog], events.get(f)))
        items += [d for pos, _, d in diags if pos >= len(chunk.ts)]
        for item in items:
            if isinstance(item, FrameDiagnostic):
                diagnostics += 1
                where = f" line={item.line_no}" if item.line_no is not None else ""
                ts = f" ts={_fmt(item.timestamp_s)}" if item.timestamp_s is not None else ""
                out.append(f"diagnostic{where}{ts} detail={item.detail!r}\n")
                continue
            frames_seen += 1
            ts, level, v, area, fpcf, flow, status, verdict, event = item
            out.append(
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
                out.append(f"alarm ts={ts!r} event={event.value}"
                           f" level_mm={level!r} v_line_mps={v!r}\n")
    out.append(f"summary frames={frames_seen} diagnostics={diagnostics}"
               f" alarms={raised} clears={cleared}\n")
    return "".join(out)


@pytest.mark.parametrize("with_poly", [True, False], ids=["polynomial", "uncorrected"])
def test_chunk_formatter_matches_record_by_record(capsys, tmp_path, with_poly):
    """Every status, an alarm raised and cleared, every diagnostic kind, an
    out-of-pipe level, a 0.0 level then a -0.0 one, and frames straddling
    chunks of FIRST_CHUNK_ROWS and CHUNK_ROWS_CAP rows, byte for byte."""
    import io

    from partialflow import (ChordReading, FpcfPolynomial, ScenarioSpec, SensorFrame, WeirMode,
                             baseline_level_mm, default_config, generate, write_frame_rows)
    from partialflow.config import format_fit_document, parse_config
    from partialflow.fpcf import FitResult
    from partialflow.measurement import CHUNK_ROWS_CAP, FIRST_CHUNK_ROWS

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
    # (six lines keep each chunk boundary inside a frame)
    lines[42:42] = [f"{ts},z,{t_up},{t_down},{level}", lines[41],
                    f"{ts},b,{t_up},{t_down},{float(level) + 1.0!r}\n",
                    "broken row\n", "x,a,1,2,85.0\n", "# comment\n"]
    for end in (FIRST_CHUNK_ROWS, 3 * FIRST_CHUNK_ROWS, 3 * FIRST_CHUNK_ROWS + CHUNK_ROWS_CAP):
        assert lines[end - 1].split(",")[0] == lines[end].split(",")[0]
    csv = tmp_path / "frames.csv"
    csv.write_text("".join(lines))
    cfg = tmp_path / "run.cfg"
    poly = FpcfPolynomial((0.6, 4e-3, -1e-5, 0.0, 0.0, 0.0, 0.0), 50.0, 180.0)
    cfg.write_text(format_fit_document(FitResult(poly, 0.0, 0.0)) if with_poly else "")

    assert main(["process", "--config", str(cfg), "--frames", str(csv)]) == 0
    out = capsys.readouterr().out
    with csv.open() as fh:
        want = _record_by_record(fh, parse_config(cfg.read_text()))
    # the first differing record, not a diff of two 2,000-line texts
    assert next(((k, a, b) for k, (a, b) in enumerate(
        zip_longest(out.splitlines(True), want.splitlines(True))) if a != b), None) is None
    statuses = ["ok", "fpcf_out_of_range"] if with_poly else ["uncorrected"]
    for text in [*(f"status={s} " for s in statuses + ["dry_chord", "invalid_times"]),
                 "event=raised", "event=cleared", "level_mm=0.0 ", "level_mm=-0.0 ",
                 "is not within the pipe", "unknown chord id", "duplicate row for chord",
                 "differs from the frame's first row", "expected 5 fields", "unparseable row"]:
        assert text in out, text
