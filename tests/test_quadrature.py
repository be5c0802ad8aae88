import math

import numpy as np
import pytest

from partialflow import OutOfRangeError, QuadratureError, QuadratureSpec
from partialflow.quadrature import _axis, _nodes_weights, adaptive_integrate


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


@pytest.mark.parametrize("n", range(2, 65))
def test_gauss_rule_matches_leggauss(n):
    from numpy.polynomial.legendre import leggauss

    x, w = map(np.array, _nodes_weights(n))
    ref_x, ref_w = leggauss(n)
    np.testing.assert_allclose(x, ref_x, rtol=1e-12, atol=0)
    # leggauss's own weights differ from 40-digit values by up to 1.8e-12
    # (n = 60) in this range; this rule's by at most 6e-14
    np.testing.assert_allclose(w, ref_w, rtol=2e-12, atol=0)
    assert abs(w.sum() - 2.0) <= 1e-15
    # exact for every monomial of degree < 2n, which leggauss misses by up to 1.1e-14
    k = np.arange(2 * n)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    np.testing.assert_allclose(np.power.outer(x, k).T @ w, exact, rtol=0, atol=2e-15)
