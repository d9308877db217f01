"""Exception types and the JSON value checks shared across the package."""

import math


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class DataFormatError(ValidationError):
    """A data file does not match its declared binary format."""


class ConfigError(ValidationError):
    """An experiment configuration file is malformed or inconsistent."""


class TrainingError(RuntimeError):
    """Training aborted (divergent loss or non-finite quantities)."""


def check_json_value(value, expected, what: str) -> None:
    """Raise ``ValidationError`` unless ``value`` has the JSON type
    ``expected``; booleans and non-finite numbers (``json`` reads ``NaN``
    and ``Infinity``) never pass."""
    if not isinstance(value, expected):
        names = (
            expected.__name__
            if isinstance(expected, type)
            else "/".join(t.__name__ for t in expected)
        )
        raise ValidationError(f"{what} must be {names}, got {type(value).__name__}")
    if isinstance(value, bool):
        raise ValidationError(f"{what} must not be a boolean")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value}")


def check_json_object(payload, allowed: dict, where: str, required=()) -> None:
    """Raise ``ValidationError`` unless ``payload`` is a JSON object that
    has every key in ``required``, no key outside ``allowed``, and each
    value passes :func:`check_json_value` for ``allowed[key]``."""
    check_json_value(payload, dict, where)
    for key, value in payload.items():
        if key not in allowed:
            raise ValidationError(f"{where}: unknown key {key!r}")
        check_json_value(value, allowed[key], f"{where}: key {key!r}")
    for key in required:
        if key not in payload:
            raise ValidationError(f"{where}: missing required key {key!r}")
