"""Exception hierarchy for garchmc."""


class GarchMCError(Exception):
    """Base class for all garchmc errors, each raised with its message alone."""


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


class DegenerateSeriesError(GarchMCError):
    """A series has zero variance; autocorrelations are undefined."""


class ComparisonRefusedError(GarchMCError):
    """Two runs cannot be compared (different data, posterior or estimator)."""
