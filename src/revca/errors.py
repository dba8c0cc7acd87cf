"""Exception types and resource budgets shared across the package."""

import os


class RuleFormatError(ValueError):
    """A rule or configuration string could not be parsed.

    ``position`` is the character (or field) index where parsing failed,
    or None when the problem is global (e.g. wrong length).
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ResourceLimitError(RuntimeError):
    """A configured search/enumeration budget was exceeded.

    This is a diagnostic, never a verdict: callers must not interpret it
    as "reversible" or "irreversible".
    """


def read_budget(override: int | None, env_var: str, default: int) -> int:
    """``override`` if given, else the positive integer in ``env_var``,
    else ``default``; any other value of the variable is a ValueError."""
    if override is not None:
        return override
    text = os.environ.get(env_var)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{env_var} must be a positive integer, got {text!r}")
    return value
