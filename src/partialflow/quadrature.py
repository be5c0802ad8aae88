"""Composite Gauss-Legendre quadrature by panel doubling, in plain floats.

One rule and one refinement loop. The rule sums 15-point Gauss-Legendre panels on
[0, 1] per axis (``_axis``), each axis optionally split at break points where the
integrand has kinks; its nodes and weights are stored as ``repr`` literals. The loop
(``QuadratureSpec.refine``) evaluates an estimate with 1, 2, 4, ... panels per piece
until two successive estimates agree to the relative tolerance. ``adaptive_integrate``
runs it on an interval; the FPCF means build their estimates on the same nodes.
"""

import math

from ._record import record
from .errors import OutOfRangeError, QuadratureError

# The 15-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree < 30.
_XI = (-0.9879925180204855, -0.937273392400706, -0.8482065834104272, -0.7244177313601701,
       -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
       0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
       0.8482065834104272, 0.937273392400706, 0.9879925180204855)
_WT = (0.030753241996116898, 0.07036604748810814, 0.10715922046717208, 0.1395706779261543,
       0.16626920581699406, 0.1861610000155622, 0.1984314853271117, 0.20257824192556137,
       0.1984314853271117, 0.1861610000155622, 0.16626920581699406, 0.1395706779261543,
       0.10715922046717208, 0.07036604748810814, 0.030753241996116898)


@record
class QuadratureSpec:
    """Tolerance and limits of panel doubling.

    ``max_depth`` is the number of doublings (up to 2^max_depth panels per
    piece) before the rule gives up.
    """

    rel_tol: float = 1e-6
    max_depth: int = 16

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise OutOfRangeError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.max_depth < 1:
            raise OutOfRangeError(f"max_depth must be >= 1, got {self.max_depth!r}")

    def refine(self, estimate) -> tuple[float, float]:
        """Panel doubling: ``estimate(n)`` with n = 1, 2, 4, ... panels per piece until two
        successive estimates differ by at most rel_tol times the finer one; returns that
        estimate and the difference as its error bound. Raises QuadratureError, with both
        and the depth, at max_depth or at the first estimate that is not finite."""
        coarse = math.nan  # no estimate passes alone
        for depth in range(self.max_depth + 1):
            fine = estimate(2**depth)
            err = abs(fine - coarse)
            if not math.isfinite(fine):  # no finer estimate mends a nan or an infinity
                break
            if err <= self.rel_tol * abs(fine):
                return fine, err
            coarse = fine
        raise QuadratureError(estimate=fine, error_bound=err, max_depth=depth)


DEFAULT_QUADRATURE = QuadratureSpec()


def _axis(breaks, n_panels: int) -> tuple[list[float], list[float]]:
    """Nodes and weights, in plain floats, of n_panels Gauss panels per piece of [0, 1]
    cut at breaks."""
    pieces = [0.0, *sorted(breaks), 1.0]
    edges = [lo + k * ((hi - lo) / n_panels)  # where numpy.linspace puts them
             for lo, hi in zip(pieces, pieces[1:]) for k in range(n_panels)] + [1.0]
    halves = [0.5 * (hi - lo) for lo, hi in zip(edges, edges[1:])]
    return ([lo + h + h * x for lo, h in zip(edges, halves) for x in _XI],
            [h * w for h in halves for w in _WT])


def adaptive_integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] to the spec's relative tolerance.

    Returns (value, error_bound); a reversed interval negates the value.
    Raises QuadratureError (carrying the estimate and bound) at max_depth
    short of the tolerance, or at the first estimate that is not finite.
    """
    if a == b:
        return 0.0, 0.0
    span = b - a

    def estimate(n_panels: int) -> float:
        total = 0.0  # left to right: the builtin sum adds with compensation from 3.12
        for x, w in zip(*_axis((), n_panels)):
            total += w * f(a + span * x)
        return span * total

    return spec.refine(estimate)
