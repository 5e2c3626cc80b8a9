"""Exception hierarchy for garchmc."""


class GarchMCError(Exception):
    """Base class for all garchmc errors.

    A subclass passes every constructor argument to ``Exception.__init__``,
    message first, so that its instances pickle: a ``--chains`` worker hands
    its error to the parent process that way. The message alone is the text.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class NumericOverflowError(GarchMCError, FloatingPointError):
    """A likelihood evaluation produced a non-finite intermediate."""


class DataValidationError(GarchMCError):
    """Input data failed validation (bad prices, unparsable rows, ...)."""


class InsufficientDataError(DataValidationError):
    """Fewer observations than the operation requires."""


class DegenerateSampleError(GarchMCError):
    """Accumulated draws have a rank-deficient covariance even after jitter."""


class TuningFailureError(GarchMCError):
    """Step-size tuning failed to reach the target acceptance band."""

    def __init__(self, message, last_acceptance):
        super().__init__(message, last_acceptance)
        self.last_acceptance = last_acceptance


class DegenerateSeriesError(GarchMCError):
    """A series has zero variance; autocorrelations are undefined."""


class ComparisonRefusedError(GarchMCError):
    """Two runs cannot be compared (different data, posterior or estimator)."""
