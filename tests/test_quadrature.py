import math

import numpy as np
import pytest

from partialflow import OutOfRangeError, QuadratureError, QuadratureSpec
from partialflow.quadrature import _WT, _XI, _axis, adaptive_integrate


def test_polynomial_closed_form():
    value, err = adaptive_integrate(lambda x: 3 * x**2 + 1, 0.0, 1.0)
    assert value == pytest.approx(2.0, rel=1e-12)
    assert err <= 1e-6 * 2.0


def test_oscillatory_against_antiderivative():
    # the integrand takes and returns one float
    value, _ = adaptive_integrate(math.cos, 0.0, 10.0)
    assert value == pytest.approx(math.sin(10.0), rel=1e-9)


def test_segment_width_integral_matches_area():
    # integral of the chord width over depth equals the circular-segment
    # area; the integrand has sqrt behavior at both endpoints.
    r = 0.125
    height = 0.2

    def width(y):
        return 2.0 * math.sqrt(max(r * r - (y - r) ** 2, 0.0))

    theta = 2.0 * math.acos(1.0 - height / r)
    exact = (2 * r) ** 2 / 8.0 * (theta - math.sin(theta))
    spec = QuadratureSpec(rel_tol=1e-8, max_depth=60)
    value, _ = adaptive_integrate(width, 0.0, height, spec)
    assert value == pytest.approx(exact, rel=1e-7)


def test_reversed_interval_negates():
    value, _ = adaptive_integrate(lambda x: x, 1.0, 0.0)
    assert value == pytest.approx(-0.5, rel=1e-12)


def test_zero_span():
    assert adaptive_integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)


def test_refinement_monotonicity():
    # sqrt endpoint behavior converges slowly enough to watch differences
    # shrink by at least 2x per panel doubling until roundoff; a loop cut
    # at depth k reports the 2^k-panel estimate.
    r = 0.125

    def width(y):
        return 2.0 * math.sqrt(max(r * r - (y - r) ** 2, 0.0))

    estimates = []
    for depth in range(1, 7):
        with pytest.raises(QuadratureError) as excinfo:
            adaptive_integrate(width, 0.0, 0.2, QuadratureSpec(rel_tol=1e-15, max_depth=depth))
        estimates.append(excinfo.value.estimate)
    diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    for d1, d2 in zip(diffs, diffs[1:]):
        if d2 < 1e-13:
            break
        assert d2 <= d1 / 2.0


def test_breaks_and_tensor_product():
    # |x - 0.3| * y on the unit square: with a break at the kink every
    # panel integrand is a polynomial, so the first estimates are exact.
    spec = QuadratureSpec()

    def estimate(n_panels):
        (xs, wx), (ys, wy) = _axis((0.3,), n_panels), _axis((), n_panels)
        return sum(a * b * abs(x - 0.3) * y for x, a in zip(xs, wx) for y, b in zip(ys, wy))

    value, err = spec.refine(estimate)
    assert value == pytest.approx(0.29 * 0.5, rel=1e-13)
    assert err < 1e-15


@pytest.mark.parametrize("on_arrays", [True, False], ids=["array", "point"])
def test_both_rules_take_one_nested_integrand(on_arrays):
    # the same integrand, unchanged, on the rule's nodes as numpy arrays and as plain floats
    def f(x):
        return lambda y: abs(x - 0.3) * y

    def estimate(n_panels):
        (xs, wx), (ys, wy) = _axis((0.3,), n_panels), _axis((), n_panels)
        if on_arrays:
            grid = f(np.asarray(xs)[:, None])(np.asarray(ys)[None, :])
            return float(np.asarray(wx) @ grid @ np.asarray(wy))
        return sum(a * b * f(x)(y) for x, a in zip(xs, wx) for y, b in zip(ys, wy))

    value, _ = QuadratureSpec().refine(estimate)
    assert value == pytest.approx(0.145, rel=1e-13)


def test_non_convergence_carries_estimate():
    spec = QuadratureSpec(rel_tol=1e-14, max_depth=2)
    with pytest.raises(QuadratureError) as excinfo:
        adaptive_integrate(lambda x: math.sqrt(abs(x)), 0.0, 1.0, spec)
    exc = excinfo.value
    assert exc.estimate == pytest.approx(2.0 / 3.0, rel=1e-3)
    assert exc.error_bound > 0
    assert exc.max_depth == 2


def test_spec_validation():
    with pytest.raises(OutOfRangeError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(OutOfRangeError):
        QuadratureSpec(max_depth=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_estimate_stops_refinement(value):
    # a nan or infinite estimate never passes the tolerance test: the loop ran all 16
    # doublings (2^17 - 1 panels of 15 integrand calls) before it raised
    calls = []

    def f(x):
        calls.append(x)
        return value

    with pytest.raises(QuadratureError) as excinfo:
        adaptive_integrate(f, 0.0, 1.0)
    assert len(calls) == 15
    assert repr(excinfo.value.estimate) == repr(value)
    assert excinfo.value.max_depth == 0


def test_estimate_turning_infinite_is_refused():
    # a finite 1-panel estimate, then an infinite one: that passed as converged, (inf, inf)
    spec = QuadratureSpec()
    with pytest.raises(QuadratureError) as excinfo:
        spec.refine(lambda n: 1.0 if n == 1 else math.inf)
    assert excinfo.value.estimate == math.inf
    assert excinfo.value.max_depth == 1


def test_stored_gauss_rule():
    from numpy.polynomial.legendre import leggauss

    x, w = np.array(_XI), np.array(_WT)
    ref_x, ref_w = leggauss(15)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=0)
    np.testing.assert_allclose(w, ref_w, rtol=2e-12, atol=0)
    assert abs(w.sum() - 2.0) <= 1e-15
    # exact for every monomial of degree < 30
    k = np.arange(30)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    np.testing.assert_allclose(np.power.outer(x, k).T @ w, exact, rtol=0, atol=2e-15)
    assert _XI == tuple(-v for v in reversed(_XI))
    assert _WT == tuple(reversed(_WT))
