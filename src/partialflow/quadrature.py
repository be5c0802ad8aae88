"""Composite Gauss-Legendre quadrature by panel doubling.

One rule and one refinement loop. The rule is a tensor product of
fixed-order Gauss panels on [0, 1] per axis, each axis optionally split at
break points where the integrand has kinks. The loop evaluates it with 1,
2, 4, ... panels per piece until two successive estimates agree to the
relative tolerance. Integrands take one node array per axis and return
their values on the tensor grid (shape: one dimension per axis), so each
estimate is a few vectorized calls.
"""

import functools
import math

from ._numpy import np
from ._record import record
from .errors import OutOfRangeError, QuadratureError

# Integrand points per call: fine grids are evaluated in slices along the first axis so
# that memory stays bounded at tight tolerances. A block's float64 arrays (32 KB each)
# stay in cache; smaller blocks pay the kernels' ~0.1 ms fixed cost per call more often.
_BLOCK_POINTS = 1 << 12


@functools.cache
def _nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: Newton's method on the Legendre recurrence
    from Tricomi's root estimates, weights 2 / ((1 - x^2) P_n'^2), then symmetrised and scaled
    as numpy.polynomial.legendre.leggauss does (not imported: it loads six basis modules)."""
    x, step = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)), 1.0
    for _ in range(50):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        if np.abs(step).max() <= 1e-15:
            break
        step = p / dp
        x = x - step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


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


@functools.lru_cache(maxsize=32)
def _unbroken(n_panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``_composite((), n_panels, nodes)``, built once and read-only."""
    x, w = _composite((), n_panels, nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def unit_integrate(f, breaks=((),), spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Integrate ``f`` over the unit cube [0, 1]^d by panel doubling.

    ``breaks`` holds, for each of the d axes, the interior points in (0, 1)
    where panels must end. ``f(x_1, ..., x_d)`` gets each axis's nodes as a
    read-only 1-D array and returns the integrand on their grid. Starting
    from one panel per piece, the panel count doubles until two successive
    estimates differ by at most rel_tol times the finer one; returns that
    estimate and the difference as its error bound. Raises QuadratureError
    (carrying both) if max_depth doublings do not get there.
    """

    def estimate(n_panels: int) -> float:
        (x0, w0), *rest = [_composite(b, n_panels, spec.nodes) if b else
                           _unbroken(n_panels, spec.nodes) for b in breaks]
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
