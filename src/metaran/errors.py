"""Exception types shared across the package, and the type rule of config fields."""

import dataclasses
import numbers
import sys
import typing


class ConfigurationError(ValueError):
    """Raised when a config object or file violates its invariants."""


class ContractViolation(ValueError):
    """Raised when a caller passes data that breaks a documented precondition."""


class TrainingDivergence(RuntimeError):
    """Raised when a loss or gradient becomes non-finite during training."""


def check_fields(record) -> None:
    """Check each field of a frozen config record by its annotation; raise
    ConfigurationError naming a field that does not fit. An int is an integer, a
    float a finite real number (stored as a float), neither a bool; a tuple[X, ...]
    a list or tuple of X (stored as a tuple); a str or record type, an instance."""
    for f in dataclasses.fields(record):
        object.__setattr__(record, f.name, _checked(f.type, getattr(record, f.name), f.name))


def _checked(kind, value, name):
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if typing.get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_checked(typing.get_args(kind)[0], item, f"{name}[{i}]")
                         for i, item in enumerate(value))
    elif kind is int:
        if number and isinstance(value, numbers.Integral):
            return value
    elif kind is float:  # NaN, the infinities and 10**400 fit no finite float
        if number and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, kind):
        return value
    raise ConfigurationError(f"{name} must be {_want(kind)}, got {value!r}")


def _want(kind) -> str:
    """What a value must be to pass as the annotated type kind."""
    if typing.get_origin(kind) is tuple:
        return f"a list, each item {_want(typing.get_args(kind)[0])}"
    return {int: "an integer", float: "a finite number", str: "a string"}.get(kind, "an object")
