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


class TestFpcfAndFit:
    def test_two_row_table(self, capsys):
        code, out, _ = run(capsys, "fpcf", "--h-min", "50", "--h-max", "250", "--step", "200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "H_mm,fpcf"
        assert len(lines) == 3
        assert [float(l.split(",")[0]) for l in lines[1:]] == [50.0, 250.0]

    def test_rows_monotone_in_level(self, capsys):
        code, out, _ = run(capsys, "fpcf", "--h-min", "60", "--h-max", "120", "--step", "20")
        assert code == 0
        levels = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert levels == sorted(levels)

    def test_fit_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fpcf", "--h-min", "50", "--h-max", "180", "--step", "10")
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

    def test_fit_refuses_excess_degree(self, capsys, tmp_path):
        table = tmp_path / "small.csv"
        table.write_text("H_mm,fpcf\n50,0.9\n60,0.92\n70,0.95\n")
        code, _, err = run(capsys, "fit", "--table", str(table), "--degree", "6")
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

    def test_missing_input_file_exits_1(self, capsys):
        code, _, _ = run(capsys, "metrics", "--trials", "/nonexistent.csv")
        assert code == 1
