"""Exception types, resource budgets and the integer syntax shared
across the package."""

import operator
import os
import re

# an integer in ASCII digits: ``int`` also takes other scripts' digits and "_"
_SIGNED_INT = re.compile(r"[+-]?[0-9]+")


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
    as "reversible" or "irreversible". A tree closure that runs out of
    nodes says how far it got: ``frontier_sizes`` are the sizes of the
    frontiers it had reached and ``budget`` is its node budget; both are
    None for other budgets.
    """

    def __init__(
        self,
        message: str,
        frontier_sizes: tuple[int, ...] | None = None,
        budget: int | None = None,
    ):
        super().__init__(message)
        self.frontier_sizes = frontier_sizes
        self.budget = budget


def as_integer(value, what: str) -> int:
    """``value`` as a plain int: whatever ``operator.index`` takes, except a
    bool. Anything else is a ValueError naming ``what``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def read_budget(override: int | None, env_var: str, default: int) -> int:
    """``override`` if given, else the value of ``env_var``, else
    ``default``. A given value that is not a positive integer (a bool is
    not; in the environment: ASCII digits, surrounding whitespace allowed)
    is a ValueError."""
    raw = os.environ.get(env_var) if override is None else override
    if raw is None:
        return default
    try:
        if override is not None:
            value = as_integer(raw, "budget")
        else:
            value = int(raw) if _SIGNED_INT.fullmatch(raw.strip()) else 0
    except ValueError:
        value = 0
    if value < 1:
        name = env_var if override is None else "budget"
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value
