"""Exception types, and the kinds of config values with their one checker,
shared across the package.  A kind is a ``check(key, value)`` that raises
``ValueError`` naming the key."""

import dataclasses
import math
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


def kind(test, says, first=None):
    """Values that pass the kind ``first`` (if given) and then ``test``; a
    failure raises ``says`` formatted with ``key`` and ``v``."""
    def check(key, v):
        if first is not None:
            first(key, v)
        if not test(v):
            raise ValueError(says.format(key=key, v=v))

    return check


def _real(v):
    """A finite real number; a bool is not one."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


INTEGER = kind(lambda v: type(v) is int or (not isinstance(v, bool)
                                             and isinstance(v, numbers.Integral)),
               "{key}: {v!r} is not an integer")
NATURAL = kind(lambda v: v >= 0, "{key}: {v!r} is negative", INTEGER)
COUNT = kind(lambda v: v >= 1, "{key}: {v!r} is below 1", INTEGER)
REAL = kind(_real, "{key}: {v!r} is not a finite number")
POSITIVE = kind(lambda v: _real(v) and v > 0, "{key}: {v!r} is not a positive number")
NONNEGATIVE = kind(lambda v: _real(v) and v >= 0,
                   "{key}: {v!r} is not a nonnegative number")
UNIT = kind(lambda v: _real(v) and 0 < v < 1, "{key}: {v!r} is not in (0, 1)")


def choice(what, *options):
    """One of ``options``; anything else is an unknown ``what``."""
    return kind(lambda v: v in options, f"{{key}}: unknown {what} {{v!r}}")


def list_of(entry, nonempty=False):
    """A list (or tuple) whose every entry is of the kind ``entry``."""
    what = "a non-empty list" if nonempty else "a list"
    def check(key, v):
        if not isinstance(v, (list, tuple)) or (nonempty and not v):
            raise ValueError(f"{key}: {v!r} is not {what}")
        for x in v:
            entry(key, x)

    return check


def setting(of, default):
    """A dataclass field of the kind ``of``; a list default is copied for
    each instance."""
    if isinstance(default, list):
        return dataclasses.field(default_factory=lambda: list(default),
                                 metadata={"kind": of})
    return dataclasses.field(default=default, metadata={"kind": of})


def check_settings(section):
    """Check every field of the dataclass ``section`` that states a kind."""
    for f in dataclasses.fields(section):
        if "kind" in f.metadata:
            f.metadata["kind"](f.name, getattr(section, f.name))

