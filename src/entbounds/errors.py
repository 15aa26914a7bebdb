"""Exception types shared across the package."""


class EntboundsError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(EntboundsError):
    """Two operands do not share the required local dimensions."""


class SizeCapError(EntboundsError):
    """A construction would exceed the configured matrix side cap."""

    def __init__(self, side, cap):
        self.side = side
        self.cap = cap
        super().__init__(f"matrix side {side} exceeds size cap {cap}")


class StateValidityError(EntboundsError):
    """A matrix violates the density-matrix invariants.

    Carries the diagnostic record so callers can inspect which
    invariant failed and by how much.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class StateFileError(EntboundsError):
    """A state file is structurally malformed (not a physics violation)."""


class EmptyWindowError(EntboundsError):
    """A binomial window contains no integers."""


class BallNotCertifiedError(EntboundsError):
    """A sampled ball leaves the certified-distillable region."""

    def __init__(self, message, sample_index=None):
        self.sample_index = sample_index
        super().__init__(message)
