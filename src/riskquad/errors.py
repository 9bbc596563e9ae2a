"""Exception types, and the integer check of config fields, shared across
the package."""

import numbers


class NumericalError(RuntimeError):
    """A solver or estimator failed to reach its accuracy contract.

    Carries the final residual (when meaningful) so callers can report it.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(ValueError):
    """A run configuration is malformed or contains unknown keys."""


def require_integers(name, *values):
    """Raise ``ValueError`` unless every value is an integer (a bool is not)."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name}: {v!r} is not an integer")
