import math

import pytest

from partialflow import ConfigError, parse_config
from partialflow.config import default_config, format_fit_document, resolve_polynomial
from partialflow.fpcf import FitResult, FpcfPolynomial


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
quad.rel_tol = 1e-7
quad.max_depth = 40
quad.nodes = 11
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
        assert config.quad.nodes == 11
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

    @pytest.mark.parametrize("key", ["fpcf.rms_residual", "fpcf.max_residual"])
    def test_fit_residual_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown keys: {key}"):
            parse_config(f"{key} = 1e-4\n")

    @pytest.mark.parametrize("factor", ["-2", "0", "nan", "inf"])
    def test_k_cal_not_finite_and_positive_rejected(self, factor):
        # calibration.factor = -2 gave negative flows with status=ok
        with pytest.raises(ConfigError, match="calibration.factor must be finite and positive"):
            parse_config(f"calibration.factor = {factor}\n")

    @pytest.mark.parametrize("debounce", ["0", "-3"])
    def test_debounce_below_one_rejected(self, debounce):
        # clog.debounce = 0 used to fail only once process built the alarm state
        with pytest.raises(ConfigError, match="clog.debounce must be >= 1"):
            parse_config(f"clog.debounce = {debounce}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["clog.slope_mps_per_mm", "clog.intercept_mps"])
    def test_non_finite_boundary_rejected(self, key, value):
        # clog.intercept_mps = nan turned every clogging verdict off
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("key,value,message", [
        ("fpcf.c0", "nan", "FPCF coefficients must be finite"),
        ("fpcf.c6", "inf", "FPCF coefficients must be finite"),
        ("fpcf.h_max_mm", "nan", "invalid validity range"),
        ("fpcf.h_max_mm", "inf", "invalid validity range"),
    ], ids=["c0_nan", "c6_inf", "h_max_nan", "h_max_inf"])
    def test_non_finite_polynomial_rejected(self, key, value, message):
        # fpcf.c0 = nan loaded, and process printed fpcf=nan q_lps=nan status=ok
        pairs = {f"fpcf.c{k}": "1.0" for k in range(7)} | {key: value}
        with pytest.raises(ConfigError, match=message):
            parse_config("".join(f"{k} = {v}\n" for k, v in pairs.items()))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("entropy.m = 0.89\nentropy.m = 0.9\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("entropy.m = fast\n")

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
        with pytest.raises(ConfigError, match="below the lowest"):
            parse_config(doc)

    @pytest.mark.parametrize("fpcf", ["".join(f"fpcf.c{k} = 1.0\n" for k in range(7)),
                                      "fpcf.derive = true\n"], ids=["coefficients", "derive"])
    def test_chords_at_two_heights_rejected_with_a_polynomial(self, fpcf):
        # one curve at the lowest chord, applied to the mean of all wet chords,
        # overstated the flow by 26-32% and still said status=ok
        chords = "chord.a.height_mm = 50\nchord.b.height_mm = 100\n"
        with pytest.raises(ConfigError, match="chords at 50, 100 mm"):
            parse_config(chords + fpcf)
        assert {c.height_mm for c in parse_config(chords).chords} == {50.0, 100.0}

    def test_derive_and_coefficients_rejected_together(self):
        # the derive flag was parsed and then ignored in favour of the coefficients
        doc = "fpcf.derive = true\n" + "".join(f"fpcf.c{k} = 1.0\n" for k in range(7))
        with pytest.raises(ConfigError, match=r"fpcf\.derive = true and fpcf\.c0\.\.c6"):
            parse_config(doc)

    def test_derive_range_below_chords_rejected(self):
        doc = "chord.a.height_mm = 80\nfpcf.derive = true\nfpcf.h_min_mm = 50\n"
        with pytest.raises(ConfigError, match="below the lowest"):
            parse_config(doc)

    def test_domain_violation_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("entropy.m = 1.5\n")


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
        poly, fit = resolve_polynomial(config)
        assert poly is config.poly
        assert fit is None

    def test_resolve_none(self):
        config = parse_config("")
        poly, fit = resolve_polynomial(config)
        assert poly is None and fit is None

    def test_resolve_derive(self):
        config = parse_config(
            "fpcf.derive = true\nfpcf.h_min_mm = 50\nfpcf.h_max_mm = 120\n"
        )
        poly, fit = resolve_polynomial(config)
        assert poly is not None
        assert fit is not None
        assert poly.h_min_mm == 50.0
        assert poly.h_max_mm == 120.0
