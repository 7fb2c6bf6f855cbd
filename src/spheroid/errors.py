"""Exception types shared across the package."""


class SpheroidError(Exception):
    """Base class for all package errors."""


class DomainError(SpheroidError, ValueError):
    """Rate function evaluated far outside its validity interval."""


class UnknownRateError(SpheroidError, KeyError):
    """Rate family name not recognized."""


class ConvergenceError(SpheroidError):
    """An iterative solver failed to reach its tolerance.

    Carries the last residual so callers can report how close it got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BracketError(SpheroidError):
    """Root bracketing failed: no sign change over the search interval."""


class NumericsError(SpheroidError):
    """Fatal numeric failure (NaN/inf in state, singular system).

    ``last_state`` holds the most recent healthy state, if any.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class ConfigError(SpheroidError, ValueError):
    """Configuration file failed to parse or validate."""


class SnapshotError(SpheroidError):
    """Snapshot file is corrupt, truncated, or incompatible."""


class InsufficientDataError(SpheroidError, ValueError):
    """Not enough usable samples for a fit."""
