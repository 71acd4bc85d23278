"""Exception types shared across the package.  ``DegenerateFitError`` means
"this fit cannot stand"; every other degeneracy is a subclass of it."""

from __future__ import annotations


class OclustError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateFitError(OclustError):
    """Model fitting collapsed (empty cluster, runaway component, ...).

    Attributes:
        subset_index: row whose leave-one-out refit degenerated, when known.
        partial_trace: iteration records accumulated before a trimming run
            aborted, when the failure happened mid-run.
    """

    def __init__(
        self,
        message: str,
        subset_index: int | None = None,
        partial_trace: list | None = None,
    ):
        super().__init__(message)
        self.subset_index = subset_index
        self.partial_trace = partial_trace


class SingularCovarianceError(DegenerateFitError):
    """A covariance matrix is not positive definite."""


class InsufficientPointsError(DegenerateFitError):
    """A cluster holds too few points for the requested statistic.

    Attributes:
        cluster: index of the offending cluster, when known.
    """

    def __init__(self, message: str, cluster: int | None = None):
        super().__init__(message)
        self.cluster = cluster


class BinningError(DegenerateFitError):
    """Histogram bins could not be built or are incompatible with the data."""


class GenerationStallError(OclustError):
    """Rejection sampling made essentially no progress within its budget."""


class InputFormatError(OclustError):
    """An input file could not be parsed; the message names the place."""
