"""Exception types shared across the package."""


class PartialFlowError(Exception):
    """Base class for all package errors."""


class OutOfRangeError(PartialFlowError, ValueError):
    """An input lies outside its physical or contractual domain."""


class DryPathError(PartialFlowError):
    """An acoustic chord lies above the water line."""


class DegenerateProfileError(PartialFlowError):
    """The area-mean over chord-mean ratio is not finite and positive: no FPCF exists."""


class NumericalDomainError(PartialFlowError):
    """A non-integer power received a negative base; indicates a bug, not bad input."""


class QuadratureError(PartialFlowError):
    """Adaptive refinement hit its depth limit before reaching tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept the partial result.
    """

    def __init__(self, estimate: float, error_bound: float, max_depth: int):
        self.estimate = estimate
        self.error_bound = error_bound
        self.max_depth = max_depth
        super().__init__(
            f"quadrature did not converge within depth {max_depth}: "
            f"estimate {estimate!r}, error bound {error_bound:.3e}"
        )


class InvalidTimesError(PartialFlowError, ValueError):
    """Transit times must be strictly positive."""


class ConfigError(PartialFlowError):
    """A run configuration file is missing, malformed, or inconsistent."""
