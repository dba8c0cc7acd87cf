"""Exception types and resource budgets shared across the package."""

import operator
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
    """``override`` if given, else the value of ``env_var``, else
    ``default``. A given value that is not a positive integer is a
    ValueError."""
    raw = os.environ.get(env_var) if override is None else override
    if raw is None:
        return default
    try:
        value = int(raw) if override is None else operator.index(raw)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        name = env_var if override is None else "budget"
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value
