"""Exception and warning types shared across the package, and the two config
value checks: ``check_int`` for integers and ``check_fraction`` for numbers in [0, 1]."""

import numbers


class ExecbenchError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(ExecbenchError):
    """The input file does not provide the configured columns."""


class DataError(ExecbenchError):
    """The input data is malformed or internally inconsistent."""


class ConfigError(ExecbenchError):
    """A configuration value or combination of values is unusable."""


def check_int(name: str, value, least: int | None = None) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is an int
    (numpy integers count, bools do not) of at least ``least``, when given."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")


def check_fraction(name: str, value) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is a real
    number (numpy scalars count, bools do not) in [0, 1]; NaN is not."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must be a number in [0, 1], got {value!r}")


class UnknownActivityError(ExecbenchError, KeyError):
    """An activity name is not part of the log's alphabet."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class VacuousChangeError(ExecbenchError):
    """A process change touches no variant of the own log."""


class ExecbenchWarning(UserWarning):
    """Base class for diagnostics emitted by this package."""


class TruncationWarning(ExecbenchWarning):
    """Change enumeration stopped below the largest compatible set."""


class LogSimilarityWarning(ExecbenchWarning):
    """The two logs share few activities; matches may be unreliable."""


class SamplingWarning(ExecbenchWarning):
    """A requested sample size exceeded the available pool."""
