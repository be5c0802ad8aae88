"""Composite Gauss-Legendre quadrature by panel doubling.

One rule and one refinement loop. The rule is a tensor product of
fixed-order Gauss panels on [0, 1] per axis, each axis optionally split at
break points where the integrand has kinks. The loop evaluates it with 1,
2, 4, ... panels per piece until two successive estimates agree to the
relative tolerance. Integrands take one node array per axis and return
their values on the tensor grid (shape: one dimension per axis), so each
estimate is a few vectorized calls.
"""

import math

from ._numpy import np
from ._record import record
from .errors import OutOfRangeError, QuadratureError

# Integrand points per call: fine grids are evaluated in slices along the
# first axis so that memory stays bounded at tight tolerances.
_BLOCK_POINTS = 1 << 10

_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


@record
class QuadratureSpec:
    """Tolerance and limits of panel doubling.

    ``max_depth`` is the number of doublings (up to 2^max_depth panels per
    piece) before the rule gives up; ``nodes`` is the Gauss order per panel.
    """

    rel_tol: float = 1e-6
    max_depth: int = 16
    nodes: int = 15

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise OutOfRangeError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.max_depth < 1:
            raise OutOfRangeError(f"max_depth must be >= 1, got {self.max_depth!r}")
        if self.nodes < 2:
            raise OutOfRangeError(f"nodes per panel must be >= 2, got {self.nodes!r}")


DEFAULT_QUADRATURE = QuadratureSpec()


def _composite(breaks, n_panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n_panels Gauss panels per piece of [0, 1] cut at breaks."""
    xi, wt = _nodes_weights(nodes)
    pieces = [0.0, *sorted(breaks), 1.0]
    starts = [np.linspace(lo, hi, n_panels, endpoint=False) for lo, hi in zip(pieces, pieces[1:])]
    edges = np.concatenate(starts + [[1.0]])
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    return (mid[:, None] + half[:, None] * xi).ravel(), (half[:, None] * wt).ravel()


def unit_integrate(f, breaks=((),), spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Integrate ``f`` over the unit cube [0, 1]^d by panel doubling.

    ``breaks`` holds, for each of the d axes, the interior points in (0, 1)
    where panels must end. ``f(x_1, ..., x_d)`` gets each axis's nodes as a
    1-D array and returns the integrand on their grid. Starting from one
    panel per piece, the panel count doubles until two successive
    estimates differ by at most rel_tol times the finer one; returns that
    estimate and the difference as its error bound. Raises QuadratureError
    (carrying both) if max_depth doublings do not get there.
    """

    def estimate(n_panels: int) -> float:
        (x0, w0), *rest = [_composite(b, n_panels, spec.nodes) for b in breaks]
        step = max(1, _BLOCK_POINTS // math.prod(len(x) for x, _ in rest))
        total = 0.0
        for lo in range(0, len(x0), step):
            values = np.asarray(f(x0[lo:lo + step], *(x for x, _ in rest)), dtype=float)
            for _, w in reversed(rest):
                values = values @ w
            total += float(values @ w0[lo:lo + step])
        return total

    coarse = estimate(1)
    for depth in range(1, spec.max_depth + 1):
        fine = estimate(2**depth)
        err = abs(fine - coarse)
        if err <= spec.rel_tol * abs(fine):
            return fine, err
        coarse = fine
    raise QuadratureError(estimate=fine, error_bound=err, max_depth=spec.max_depth)


def adaptive_integrate(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] to the spec's relative tolerance.

    Returns (value, error_bound); a reversed interval negates the value.
    Raises QuadratureError (carrying the best estimate and bound) if the
    panel count stops doubling at max_depth short of the tolerance.
    """
    if a == b:
        return 0.0, 0.0
    span = b - a
    return unit_integrate(lambda s: span * np.asarray(f(a + span * s), dtype=float), spec=spec)
