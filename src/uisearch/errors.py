"""Exception types shared across the package."""


class NonConvergenceError(RuntimeError):
    """A fixed point reached the solver's private Newton step cap.

    No accepted configuration is known to reach it, so this marks a
    defect. Carries the last residual so callers can report how close
    the iteration got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(ValueError):
    """A policy evaluation has no finite answer that floats can resolve.

    Raised when the acceptance probability is zero in an absorbing state,
    so expected duration (and the accepted-wage expectation) diverge, or
    when acceptance probabilities are so small that rounding carries the
    expected accepted wage out of the offer support.
    """


class InfeasibleError(ValueError):
    """A calibration target cannot be met by any admissible parameter."""


class ConfigError(ValueError):
    """A run configuration failed validation.

    ``field`` names the offending entry.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
