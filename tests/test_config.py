import importlib
import math
import re

import pytest

from partialflow import (ChordSpec, ConfigError, EntropyParams, OutOfRangeError, PipeGeometry,
                         RunConfig, parse_config)
from partialflow.config import _SCALARS, default_config, format_fit_document, resolve_polynomial
from partialflow.fpcf import FitResult, FpcfPolynomial


def _direct(doc: str) -> RunConfig:
    """``doc``'s settings handed to ``RunConfig`` as a library caller hands them, past
    every check of the document parser: chords as ``ChordSpec``s on 0.3 m paths at 45
    degrees, and coefficients as a polynomial valid from 50 to 250 mm."""
    pairs = dict(line.split(" = ") for line in doc.splitlines() if line)
    fields = {field: parse(pairs[key], key) for key, (rec, field, parse) in _SCALARS.items()
              if rec is RunConfig and key in pairs}
    chords = {}
    for key in sorted(k for k in pairs if k.startswith("chord.")):
        _, chord_id, name = key.split(".")
        chords.setdefault(chord_id, {})[name] = float(pairs[key])
    if chords:
        fields["chords"] = tuple(ChordSpec(chord_id, path_length_m=0.3, beam_angle_rad=math.pi / 4,
                                           **values) for chord_id, values in chords.items())
    if "fpcf.c0" in pairs:
        coeffs = tuple(float(pairs[f"fpcf.c{k}"]) for k in range(7))
        fields["poly"] = FpcfPolynomial(coeffs, 50.0, 250.0)
    return RunConfig(**{**vars(default_config()), **fields})


BUILDS = (parse_config, _direct)


def parsed_and_direct(argnames: str, values: list, ids=None):
    """Parametrize over ``values`` built by ``parse_config`` under their own ids, and
    again by ``_direct`` under ``<id>-direct``: every check of a run's settings is
    ``RunConfig``'s own, so a config built directly fails it as a parsed one does."""
    rows = [v if isinstance(v, tuple) else (v,) for v in values]
    return pytest.mark.parametrize(f"{argnames},build", [
        pytest.param(*row, build, id=f"{i}{suffix}")
        for build, suffix in zip(BUILDS, ("", "-direct")) for row, i in zip(rows, ids or values)])


class TestDefaults:
    def test_empty_document_is_default(self):
        # every field, so that a default defined twice cannot drift apart
        assert parse_config("") == default_config()

    def test_default_chords_are_crossed_pair(self):
        config = default_config()
        assert len(config.chords) == 2
        assert {c.height_mm for c in config.chords} == {50.0}
        # path spans the full 0.2 m chord at 45 degrees
        assert config.chords[0].path_length_m == pytest.approx(0.2 / math.sin(math.radians(45)))


FULL_DOC = """
# example configuration
pipe.diameter_mm = 250
entropy.m = 0.89
entropy.q = 1.15
calibration.factor = 0.98
chord.low.height_mm = 50
chord.low.beam_angle_deg = 45
chord.low.weight = 2
chord.up.height_mm = 50
chord.up.path_length_m = 0.31
chord.up.beam_angle_deg = 30
fpcf.h_min_mm = 50
fpcf.h_max_mm = 250
fpcf.c0 = 0.603
fpcf.c1 = 0.0124
fpcf.c2 = -0.000181
fpcf.c3 = 1.24e-06
fpcf.c4 = -1.96e-09
fpcf.c5 = -1.35e-11
fpcf.c6 = 4.22e-14
clog.slope_mps_per_mm = 0.004
clog.intercept_mps = -0.01
clog.debounce = 3
"""


class TestParsing:
    def test_full_document(self):
        config = parse_config(FULL_DOC)
        assert config.pipe.diameter_m == 0.250
        assert config.k_cal == 0.98
        assert config.debounce == 3
        assert config.boundary.slope_mps_per_mm == 0.004
        assert [c.chord_id for c in config.chords] == ["low", "up"]
        low = config.chords[0]
        assert low.weight == 2.0
        # omitted path length derives from the chord geometry
        assert low.path_length_m == pytest.approx(0.2 / math.sin(math.radians(45)))
        assert config.chords[1].path_length_m == 0.31
        assert config.poly is not None
        assert config.poly.coeffs[0] == 0.603

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("pipe.diametr_mm = 250\n")

    @pytest.mark.parametrize("line", ["quad.rel_tol = 1e-7", "quad.max_depth = 40",
                                      "quad.nodes = 11"], ids=["rel_tol", "max_depth", "nodes"])
    def test_quadrature_keys_are_unknown(self, line, tmp_path, capsys):
        # every run integrates with quadrature.DEFAULT_QUADRATURE; no run set these keys
        from partialflow.cli import main

        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=f"^unknown keys: {re.escape(key)}$"):
            parse_config(line + "\n")
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(line + "\n")
        assert main(["fpcf", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"config error: unknown keys: {key}\n")

    def test_all_zero_chord_weights_rejected(self):
        # every frame with valid times printed status=invalid_times and no flow
        message = "every chord weight is 0 (chord.a.weight, chord.b.weight): no chord counts"
        for build in BUILDS:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                build("".join(f"chord.{c}.height_mm = 50\nchord.{c}.weight = 0\n"
                              for c in "ab"))
            config = build("chord.a.height_mm = 50\nchord.a.weight = 0\n"
                           "chord.b.height_mm = 50\nchord.b.weight = 0.5\n")
            assert [c.weight for c in config.chords] == [0.0, 0.5]

    @pytest.mark.parametrize("key", ["fpcf.rms_residual", "fpcf.max_residual"])
    def test_fit_residual_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown keys: {key}"):
            parse_config(f"{key} = 1e-4\n")

    @parsed_and_direct("factor", ["-2", "0", "nan", "inf"])
    def test_k_cal_not_finite_and_positive_rejected(self, factor, build):
        # calibration.factor = -2 gave negative flows with status=ok, and
        # RunConfig(..., k_cal=-2.0) still did
        with pytest.raises(ConfigError, match="calibration.factor must be finite and positive"):
            build(f"calibration.factor = {factor}\n")

    @parsed_and_direct("debounce", ["0", "-3"])
    def test_debounce_below_one_rejected(self, debounce, build):
        # clog.debounce = 0 used to fail only once process built the alarm state
        with pytest.raises(ConfigError, match="clog.debounce must be >= 1"):
            build(f"clog.debounce = {debounce}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["clog.slope_mps_per_mm", "clog.intercept_mps"])
    def test_non_finite_boundary_rejected(self, key, value):
        # clog.intercept_mps = nan turned every clogging verdict off
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("key,value,message", [
        ("fpcf.c0", "nan", "FPCF coefficients must be finite"),
        ("fpcf.c6", "inf", "FPCF coefficients must be finite"),
        ("fpcf.h_max_mm", "nan", "fpcf.h_max_mm must be finite, got nan"),
        ("fpcf.h_max_mm", "inf", "fpcf.h_max_mm must be finite, got inf"),
    ], ids=["c0_nan", "c6_inf", "h_max_nan", "h_max_inf"])
    def test_non_finite_polynomial_rejected(self, key, value, message):
        # fpcf.c0 = nan loaded, and process printed fpcf=nan q_lps=nan status=ok
        pairs = {f"fpcf.c{k}": "1.0" for k in range(7)} | {key: value}
        with pytest.raises(ConfigError, match=message):
            parse_config("".join(f"{k} = {v}\n" for k, v in pairs.items()))

    @parsed_and_direct("c0,c6,value", [(-0.5, 0.0, "-0.5"), (1e300, 1e300, "inf")],
                       ids=["negative", "infinite"])
    def test_polynomial_must_give_a_positive_factor(self, c0, c6, value, build):
        # fpcf.c0 = -0.5 loaded, and process printed fpcf=-0.5 q_lps=-1.92... status=ok
        doc = "".join(f"fpcf.c{k} = {c}\n" for k, c in enumerate((c0, 0, 0, 0, 0, 0, c6)))
        with pytest.raises(ConfigError, match=f"^fpcf.c0..c6 give FPCF = {value} at H = 50 mm: "
                           "a factor must be finite and positive$"):
            build(doc)

    @pytest.mark.parametrize("text,message", [
        ("entropy.q = inf", "q must be finite and exceed 1, got inf for entropy.q = inf"),
        ("entropy.m = nan", "M must lie in (0, 1), got nan for entropy.m = nan"),
        ("pipe.diameter_mm = inf",
         "pipe diameter must be finite and positive, got inf for pipe.diameter_mm = inf"),
        ("chord.a.height_mm = 50\nchord.a.path_length_m = inf",
         "path length must be finite and positive, got inf for chord.a.path_length_m = inf"),
        ("pipe.diameter_mm = -1",
         "pipe diameter must be finite and positive, got -0.001 for pipe.diameter_mm = -1"),
        ("chord.a.height_mm = 50\nchord.a.beam_angle_deg = 95",
         "beam angle must lie in (0, pi/2), got 1.6580627893946132 "
         "for chord.a.beam_angle_deg = 95"),
        ("chord.a.height_mm = 50\nchord.a.path_length_m = 0.3\nchord.a.beam_angle_deg = 95\n"
         "chord.a.weight = 1",
         "beam angle must lie in (0, pi/2), got 1.6580627893946132 for chord.a.path_length_m = "
         "0.3, chord.a.beam_angle_deg = 95, chord.a.weight = 1"),
    ], ids=["q_inf", "m_nan", "diameter_inf", "path_length_inf", "diameter_negative",
            "angle_95", "angle_95_beside_path_and_weight"])
    def test_non_finite_model_and_geometry_named_by_key(self, text, message):
        # q = inf gave FPCF 1.0 at every level, an infinite path inf transit times, and an
        # infinite diameter "path length must be positive, got nan"; each key is shown with
        # its value as written, since the record holds it in metres or radians
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text + "\n")

    def test_records_refuse_infinite_values(self):
        with pytest.raises(OutOfRangeError, match="q must be finite"):
            EntropyParams(q=math.inf)
        with pytest.raises(OutOfRangeError, match="pipe diameter must be finite"):
            PipeGeometry(math.inf)
        with pytest.raises(OutOfRangeError, match="path length must be finite"):
            ChordSpec("a", 50.0, math.inf, math.pi / 4)

    @pytest.mark.parametrize("value,derive", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("no", False), ("0", False), ("OFF", False),
    ])
    def test_derive_flag_spellings(self, value, derive):
        assert parse_config(f"fpcf.derive = {value}\n").fpcf_derive is derive

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("entropy.m = 0.89\nentropy.m = 0.9\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("entropy.m = fast\n")

    @pytest.mark.parametrize("line,message", [
        ("pipe.diameter_mm = 3_00", "pipe.diameter_mm: expected a number, got '3_00'"),
        ("calibration.factor = 1_0", "calibration.factor: expected a number, got '1_0'"),
        ("clog.debounce = 1_0", "clog.debounce: expected an integer, got '1_0'"),
        ("chord.a.height_mm = 5_0", "chord.a.height_mm: expected a number, got '5_0'"),
        ("entropy.m = 0.8_9", "entropy.m: expected a number, got '0.8_9'"),
    ], ids=["diameter", "factor", "debounce", "chord_height", "entropy_m"])
    def test_digit_separator_is_not_a_number(self, line, message):
        # int() and float() read 3_00 as 300: a 300 mm pipe was configured
        with pytest.raises(ConfigError) as exc:
            parse_config(line + "\n")
        assert str(exc.value) == message

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("entropy.m 0.89\n")

    def test_incomplete_coefficients(self):
        with pytest.raises(ConfigError, match="incomplete"):
            parse_config("fpcf.c0 = 1.0\n")

    def test_bad_chord_field(self):
        with pytest.raises(ConfigError):
            parse_config("chord.a.heigth_mm = 50\n")

    def test_chord_without_height(self):
        with pytest.raises(ConfigError, match="height_mm"):
            parse_config("chord.a.weight = 1\n")

    def test_poly_range_below_chords_rejected(self):
        doc = (
            "chord.a.height_mm = 80\n"
            + "fpcf.h_min_mm = 50\nfpcf.h_max_mm = 250\n"
            + "\n".join(f"fpcf.c{k} = 1.0" for k in range(7))
            + "\n"
        )
        for build in BUILDS:
            with pytest.raises(ConfigError, match="below the lowest"):
                build(doc)

    @parsed_and_direct("fpcf", ["".join(f"fpcf.c{k} = 1.0\n" for k in range(7)),
                                "fpcf.derive = true\n"], ids=["coefficients", "derive"])
    def test_chords_at_two_heights_rejected_with_a_polynomial(self, fpcf, build):
        # one curve at the lowest chord, applied to the mean of all wet chords,
        # overstated the flow by 26-32% and still said status=ok; so did a
        # polynomial passed to process_lines beside the config
        chords = "chord.a.height_mm = 50\nchord.b.height_mm = 100\n"
        with pytest.raises(ConfigError, match="chords at 50, 100 mm"):
            build(chords + fpcf)
        assert {c.height_mm for c in build(chords).chords} == {50.0, 100.0}

    def test_derive_and_coefficients_rejected_together(self):
        # the derive flag was parsed and then ignored in favour of the coefficients
        doc = "fpcf.derive = true\n" + "".join(f"fpcf.c{k} = 1.0\n" for k in range(7))
        with pytest.raises(ConfigError, match=r"fpcf\.derive = true and fpcf\.c0\.\.c6"):
            parse_config(doc)
        # a document gives one of them; a resolved derive config holds both
        assert _direct(doc).fpcf_derive and _direct(doc).poly is not None

    def test_derive_range_below_chords_rejected(self):
        doc = "chord.a.height_mm = 80\nfpcf.derive = true\nfpcf.h_min_mm = 50\n"
        for build in BUILDS:
            with pytest.raises(ConfigError, match="below the lowest"):
                build(doc)

    @parsed_and_direct("fpcf", ["".join(f"fpcf.c{k} = 1.0\n" for k in range(7)),
                                "fpcf.derive = true\n"], ids=["coefficients", "derive"])
    def test_range_below_chords_names_the_key(self, fpcf, build):
        # one check for both sources; it said "FPCF range starts at 40 mm" for
        # coefficients and "FPCF derivation starts at 40 mm" for derive
        message = "fpcf.h_min_mm = 40 lies below the lowest chord at 50 mm"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(fpcf + "fpcf.h_min_mm = 40\n")

    @pytest.mark.parametrize("text,message", [
        ("fpcf.derive = true\nfpcf.h_max_mm = 100", "fpcf.derive = true needs more than 6 "
         "levels, got 6 from fpcf.h_min_mm = 50, fpcf.h_max_mm = 100 and fpcf.step_mm = 10"),
        ("fpcf.derive = true\nfpcf.h_max_mm = 50", "fpcf.derive = true needs more than 6 "
         "levels, got 1 from fpcf.h_min_mm = 50, fpcf.h_max_mm = 50 and fpcf.step_mm = 10"),
        ("fpcf.derive = true\nfpcf.step_mm = 40", "fpcf.derive = true needs more than 6 "
         "levels, got 6 from fpcf.h_min_mm = 50, fpcf.h_max_mm = 250 and fpcf.step_mm = 40"),
        ("".join(f"fpcf.c{k} = 1.0\n" for k in range(7)) + "fpcf.h_max_mm = 50",
         "fpcf.c0..c6 need fpcf.h_max_mm above fpcf.h_min_mm = 50"),
    ], ids=["derive_6_levels", "derive_1_level", "derive_coarse_step", "coefficients_1_level"])
    def test_range_too_small_for_a_polynomial_names_its_keys(self, text, message):
        # derive failed in the fit, after the quadrature, with "need more than 6
        # samples for a degree-6 fit, got 6"; coefficients gave "invalid validity range"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text + "\n")
        assert parse_config("fpcf.derive = true\nfpcf.h_max_mm = 110\n").fpcf_derive  # 7 levels

    @pytest.mark.parametrize("h_max,step,levels", [(110, 10, 7), (109.99, 10, 6), (51.8, 0.3, 7)],
                             ids=["110_by_10", "109.99_by_10", "51.8_by_0.3"])
    def test_config_counts_levels_as_the_table_does(self, monkeypatch, h_max, step, levels):
        # RunConfig re-derived tabulate_fpcf's count beside it; both now call table_levels.
        # (51.8 - 50) / 0.3 is 5.999999999999991: truncated alone, it would give 6 levels
        fpcf_module = importlib.import_module("partialflow.fpcf")
        monkeypatch.setattr(fpcf_module, "fpcf", lambda *args: 1.0)
        text = f"fpcf.h_max_mm = {h_max}\nfpcf.step_mm = {step}\n"
        assert len(fpcf_module.table_levels(50.0, h_max, step)) == levels
        assert len(fpcf_module.tabulate_fpcf(parse_config(text))) == levels
        if levels > 6:
            assert parse_config("fpcf.derive = true\n" + text).fpcf_derive
        else:
            with pytest.raises(ConfigError, match=f"more than 6 levels, got {levels} "):
                parse_config("fpcf.derive = true\n" + text)

    def test_no_chord_rejected(self):
        # RunConfig(..., chords=()) said "every chord weight is 0 ()"
        message = "no chord is configured: a run needs at least one chord.*.height_mm"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(pipe=PipeGeometry(0.25), params=EntropyParams(), chords=())

    @parsed_and_direct("chord_id", [" a ", "a,x", ""], ids=["padded", "comma", "empty"])
    def test_chord_id_no_frame_row_can_carry_rejected(self, chord_id, build):
        # chord. a .height_mm = 50 loaded, and process dropped each of its rows as an
        # unknown chord id: a row's fields are split at commas and stripped
        message = (f"chord id {chord_id!r} cannot be read from a frame row: an id is "
                   "non-empty, without commas, line breaks or end spaces")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(f"chord.{chord_id}.height_mm = 50\n")

    @pytest.mark.parametrize("chord_id", ["a\nb", "a\rb"])
    def test_chord_id_with_a_line_break_rejected(self, chord_id):
        # no document holds these; a RunConfig built directly did, and simulate wrote
        # rows that process split in two
        chord = ChordSpec(chord_id, 50.0, 0.3, math.pi / 4)
        with pytest.raises(ConfigError, match=f"^chord id {re.escape(repr(chord_id))} "):
            RunConfig(pipe=PipeGeometry(0.25), params=EntropyParams(), chords=(chord,))

    def test_duplicate_chord_ids_rejected(self):
        # a parsed config cannot repeat an id; a built one counted the first of them only
        chord = default_config().chords[0]
        with pytest.raises(ConfigError, match="^chord ids must be unique, got a, a$"):
            RunConfig(pipe=PipeGeometry(0.25), params=EntropyParams(), chords=(chord, chord))

    @pytest.mark.parametrize("diameter,message", [
        ("40", "chord.a.height_mm = 50 lies above the pipe crown at 40 mm"),
        ("50", "chord.a.height_mm = 50 lies at the pipe crown at 50 mm"),
    ], ids=["below_chords", "at_chords"])
    def test_small_pipe_default_chords_named_in_mm(self, diameter, message):
        # the default chords skipped the chord checks: 40 mm gave "chord height
        # 0.05 outside [0, 0.04]", in metres and without a key
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"pipe.diameter_mm = {diameter}\n")

    @parsed_and_direct("derive", ["", "fpcf.derive = true\n"], ids=["plain", "derive"])
    @pytest.mark.parametrize("text,message", [
        ("fpcf.h_min_mm = nan", "fpcf.h_min_mm must be finite, got nan"),
        ("fpcf.h_min_mm = -inf", "fpcf.h_min_mm must be finite, got -inf"),
        ("fpcf.h_max_mm = inf", "fpcf.h_max_mm must be finite, got inf"),
        ("fpcf.h_max_mm = 40", "fpcf.h_max_mm = 40 lies below fpcf.h_min_mm = 50"),
        ("fpcf.h_max_mm = 260", "fpcf.h_max_mm = 260 lies above the pipe crown at 250 mm"),
        ("fpcf.step_mm = 0", "fpcf.step_mm must be finite and positive, got 0.0"),
        ("fpcf.step_mm = -10", "fpcf.step_mm must be finite and positive, got -10.0"),
        ("fpcf.step_mm = nan", "fpcf.step_mm must be finite and positive, got nan"),
    ], ids=["h_min_nan", "h_min_neg_inf", "h_max_inf", "h_max_below_h_min", "h_max_above_crown",
            "step_0", "step_negative", "step_nan"])
    def test_bad_fpcf_range_rejected(self, derive, text, message, build):
        # with derive the tabulation failed outside the config layer, naming a level
        # above the crown in metres; without it the range was never checked
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(derive + text + "\n")

    @pytest.mark.parametrize("fpcf", ["", "fpcf.derive = true\n",
                                      "".join(f"fpcf.c{k} = 1.0\n" for k in range(7))],
                             ids=["plain", "derive", "coefficients"])
    def test_h_max_defaults_to_the_pipe_crown(self, fpcf):
        # it defaulted to 250 mm on any pipe, so a 200 mm pipe alone was rejected
        # with "fpcf.h_max_mm = 250 lies above the pipe crown at 200 mm"
        config = parse_config(fpcf + "pipe.diameter_mm = 200\n")
        assert config.fpcf_h_max_mm == 200.0
        assert config.poly is None or config.poly.h_max_mm == 200.0
        assert parse_config(fpcf).fpcf_h_max_mm == 250.0
        assert parse_config(fpcf + "fpcf.h_max_mm = 180\n").fpcf_h_max_mm == 180.0
        direct = RunConfig(pipe=PipeGeometry(0.3), params=EntropyParams(),
                           chords=default_config().chords)
        assert direct.fpcf_h_max_mm == 300.0

    @pytest.mark.parametrize("height,message", [
        ("300", "chord.a.height_mm = 300 lies above the pipe crown at 250 mm"),
        ("250", "chord.a.height_mm = 250 lies at the pipe crown at 250 mm"),
        ("nan", "chord height must be finite and positive, got nan for chord.a.height_mm = nan"),
        ("-5", "chord height must be finite and positive, got -5.0 for chord.a.height_mm = -5"),
    ], ids=["above_crown", "at_crown", "nan", "negative"])
    def test_bad_chord_height_without_path_named_in_mm(self, height, message):
        # the wall-to-wall path was computed first, and its error gave the height
        # in metres without the key ("chord height 0.3 outside [0, 0.25]")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"chord.a.height_mm = {height}\n")

    @parsed_and_direct("doc", ["chord.a.height_mm = 300\n",
                               "chord.a.height_mm = 300\nchord.b.height_mm = 50\n"],
                       ids=["one_chord", "beside_a_wet_chord"])
    def test_chord_above_the_crown_rejected(self, doc, build):
        # a built config took a chord at 300 mm on the 250 mm pipe, and process_lines
        # then gave every frame dry_chord, as at 240 mm
        message = "chord.a.height_mm = 300 lies above the pipe crown at 250 mm"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(doc)

    def test_chord_above_the_crown_with_a_path_rejected(self):
        # a given path skips the wall-to-wall derivation; the run's own check remains
        message = "chord.a.height_mm = 300 lies above the pipe crown at 250 mm"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config("chord.a.height_mm = 300\nchord.a.path_length_m = 0.3\n")
        assert parse_config("chord.a.height_mm = 250\nchord.a.path_length_m = 0.3\n")

    def test_domain_violation_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("entropy.m = 1.5\n")

    @pytest.mark.parametrize("angle,radians", [
        ("0", "0.0"), ("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"),
        ("-30", "-0.5235987755982988"), ("360", "6.283185307179586")])
    def test_beam_angle_checked_before_the_path_is_derived_from_it(self, angle, radians):
        # the wall-to-wall path 2w / sin(angle) came first: 0 gave "float division by
        # zero", +-inf "math domain error", and nan, -30 and 360 a path length refusal
        message = (f"beam angle must lie in (0, pi/2), got {radians} "
                   f"for chord.a.beam_angle_deg = {angle}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"chord.a.height_mm = 50\nchord.a.beam_angle_deg = {angle}\n")

    def test_only_a_refusal_becomes_a_config_error(self, monkeypatch):
        # every exception of the parser was a config error, a bug's too
        def broken(*args):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(importlib.import_module("partialflow.config"), "chord_half_width",
                            broken)
        with pytest.raises(ZeroDivisionError, match="^a bug$"):
            parse_config("")

    @parsed_and_direct("text,step", [
        ("fpcf.derive = true\nfpcf.step_mm = 5e-324", "4.94066e-324"),
        ("fpcf.derive = true\nfpcf.step_mm = 0.001", "0.001"),
        ("".join(f"fpcf.c{k} = 1.0\n" for k in range(7)) + "fpcf.step_mm = 0.001", "0.001"),
    ], ids=["derive_subnormal_step", "derive_fine_step", "coefficients"])
    def test_level_grid_past_its_bound_rejected(self, text, step, build):
        # a subnormal step overflowed the level count ("cannot convert float infinity to
        # integer"); a fine one is a list of levels as long as the range over the step
        message = f"fpcf.step_mm = {step} gives the FPCF table over 100000 levels"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(text + "\n")


class TestFitDocument:
    def test_bit_exact_round_trip(self):
        poly = FpcfPolynomial(
            (0.6030000000000001, 0.0124, -1.81e-4, 1.24e-6, -1.96e-9, -1.35e-11, 4.22e-14),
            50.0,
            250.0,
        )
        fit = FitResult(poly, rms_residual=1.234e-5, max_residual=3.21e-5)
        doc = format_fit_document(fit)
        config = parse_config(doc)
        assert config.poly is not None
        assert config.poly.coeffs == poly.coeffs
        assert config.poly.h_min_mm == poly.h_min_mm
        assert config.poly.h_max_mm == poly.h_max_mm
        assert "# fpcf.rms_residual = 1.234e-05\n# fpcf.max_residual = 3.21e-05\n" in doc

    def test_resolve_explicit_poly(self):
        config = parse_config(FULL_DOC)
        resolved, fit = resolve_polynomial(config)
        assert resolved is config
        assert fit is None

    def test_resolve_none(self):
        config = parse_config("")
        resolved, fit = resolve_polynomial(config)
        assert resolved is config and resolved.poly is None and fit is None

    def test_resolve_derive(self):
        config = parse_config(
            "fpcf.derive = true\nfpcf.h_min_mm = 50\nfpcf.h_max_mm = 120\n"
        )
        resolved, fit = resolve_polynomial(config)
        assert fit is not None and resolved.poly is fit.polynomial
        assert resolved.poly.h_min_mm == 50.0
        assert resolved.poly.h_max_mm == 120.0
        # the run's config with its polynomial set, still saying where it came from
        assert resolved == RunConfig(**{**vars(config), "poly": fit.polynomial})
        assert resolved.fpcf_derive

    @pytest.mark.parametrize("text,level,advice", [
        ("entropy.m = 0.3\n", 50, "the profile (entropy.m = 0.3, entropy.q = 1.15) gives none at "
         "the first level, fpcf.h_min_mm (50)"),
        ("chord.a.height_mm = 30\nfpcf.h_min_mm = 30\n", 250,
         "the chord at 30 mm needs fpcf.h_max_mm (250) below that level"),
    ], ids=["first_level", "last_level"])
    def test_resolve_derive_names_what_to_change(self, text, level, advice):
        # at the first level only the profile can mend the table: the advice to lower
        # fpcf.h_max_mm below it named a value RunConfig refuses
        with pytest.raises(ConfigError) as excinfo:
            resolve_polynomial(parse_config(text + "fpcf.derive = true\n"))
        message = str(excinfo.value)
        assert message.startswith(f"FPCF tabulation failed at H = {level} mm: ")
        assert message.endswith(f"; {advice}")
