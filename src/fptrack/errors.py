"""Exception types shared across the package, and the integer check that raises one."""

import operator


class FixedTrackError(Exception):
    """Base class for all fptrack errors."""


class PreconditionError(FixedTrackError, ValueError):
    """An operation was called outside its stated domain of validity."""


class NonConvergenceError(FixedTrackError, RuntimeError):
    """Batch fixed-point iteration hit its iteration cap above tolerance."""

    def __init__(self, message, residual=None, iterations=None, time_index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.time_index = time_index


class DomainViolationError(FixedTrackError, RuntimeError):
    """An iterate or map output left the declared domain.

    Signals that a self-map declaration is false for the instance at hand.
    ``time_index`` is the time of the map that left, when one is known.
    """

    def __init__(self, message, time_index=None):
        super().__init__(message)
        self.time_index = time_index


class LengthMismatchError(FixedTrackError, ValueError):
    """Paired sequences have different lengths."""


class StaleBeyondCapError(FixedTrackError, RuntimeError):
    """A channel schedule exceeded its declared worst-case staleness."""


class ContractionUncertifiedError(FixedTrackError, RuntimeError):
    """Empirical or analytic certification of a contraction/self-map failed."""


class PartitionUnsupportedError(FixedTrackError, ValueError):
    """A network partition does not have the supported chain-of-areas shape."""


class ConfigError(FixedTrackError, ValueError):
    """An experiment configuration document is invalid."""


def _integer(value, what) -> int:
    """``value`` as an int: an int or a numpy integer passes, a float would truncate."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} {value!r} is not an integer") from None
