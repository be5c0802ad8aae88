"""Composite Gauss-Legendre quadrature by panel doubling, in plain floats.

One rule and one refinement loop. The rule sums fixed-order Gauss panels on
[0, 1] per axis (``_axis``), each axis optionally split at break points where
the integrand has kinks. The loop (``QuadratureSpec.refine``) evaluates an
estimate with 1, 2, 4, ... panels per piece until two successive estimates
agree to the relative tolerance. ``adaptive_integrate`` runs it on an
interval; the FPCF means build their estimates on the same nodes.
"""

import functools
import math
from operator import add, truediv

from ._record import record
from .errors import OutOfRangeError, QuadratureError

NODES = 15  # the Gauss order of every panel


@functools.cache
def _nodes_weights(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre rule on [-1, 1]: Newton's method on the Legendre recurrence
    from Tricomi's root estimates, weights 2 / ((1 - x^2) P_n'^2), then symmetrised and scaled
    as numpy.polynomial.legendre.leggauss does (not imported: it loads six basis modules).
    The weights are summed in numpy's pairwise order (n <= 128), as leggauss sums them."""
    x, step = [math.cos(math.pi * (k - 0.25) / (n + 0.5)) for k in range(n, 0, -1)], [1.0]
    for _ in range(50):
        p_prev, p = [1.0] * n, x
        for k in range(2, n + 1):
            p_prev, p = p, [((2 * k - 1) * a * b - (k - 1) * c) / k
                            for a, b, c in zip(x, p, p_prev)]
        dp = [n * (c - a * b) / ((1.0 - a) * (1.0 + a)) for a, b, c in zip(x, p, p_prev)]
        if max(map(abs, step)) <= 1e-15:
            break
        step = list(map(truediv, p, dp))
        x = [a - s for a, s in zip(x, step)]
    w = [2.0 / ((1.0 - a) * (1.0 + a) * d * d) for a, d in zip(x, dp)]
    x, w = [0.5 * (a - b) for a, b in zip(x, x[::-1])], [0.5 * (a + b) for a, b in zip(w, w[::-1])]
    head = n - n % 8  # numpy's sum of up to 128 floats: eight running sums, then the rest
    r = [functools.reduce(add, w[j:head:8], 0.0) for j in range(8)]
    pairs = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    scale = 2.0 / functools.reduce(add, w[head:], pairs)
    return tuple(x), tuple(v * scale for v in w)


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
        estimate and the difference as its error bound. Raises QuadratureError (carrying
        both) if max_depth doublings do not get there."""
        coarse = estimate(1)
        for depth in range(1, self.max_depth + 1):
            fine = estimate(2**depth)
            err = abs(fine - coarse)
            if err <= self.rel_tol * abs(fine):
                return fine, err
            coarse = fine
        raise QuadratureError(estimate=fine, error_bound=err, max_depth=self.max_depth)


DEFAULT_QUADRATURE = QuadratureSpec()


def _axis(breaks, n_panels: int) -> tuple[list[float], list[float]]:
    """Nodes and weights, in plain floats, of n_panels Gauss panels per piece of [0, 1]
    cut at breaks."""
    xi, wt = _nodes_weights(NODES)
    pieces = [0.0, *sorted(breaks), 1.0]
    edges = [lo + k * ((hi - lo) / n_panels)  # where numpy.linspace puts them
             for lo, hi in zip(pieces, pieces[1:]) for k in range(n_panels)] + [1.0]
    halves = [0.5 * (hi - lo) for lo, hi in zip(edges, edges[1:])]
    return ([lo + h + h * x for lo, h in zip(edges, halves) for x in xi],
            [h * w for h in halves for w in wt])


def adaptive_integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] to the spec's relative tolerance.

    Returns (value, error_bound); a reversed interval negates the value.
    Raises QuadratureError (carrying the best estimate and bound) if the
    panel count stops doubling at max_depth short of the tolerance.
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
