"""Exception types, resource budgets and the integer checks shared
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


def as_integer(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a plain int: whatever ``operator.index`` takes, except a
    bool, and at least ``lo`` and at most ``hi`` where given (``hi`` only with
    ``lo``). Anything else is a ValueError naming ``what``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= v <= hi:
        raise ValueError(f"{what} must be in [{lo}, {hi}], got {v}")
    if lo is not None and v < lo:
        raise ValueError(f"{what} must be >= {lo}, got {v}")
    return v


def read_budget(override: int | None, env_var: str, default: int) -> int:
    """``override`` (an integer >= 1) if given, else the value of ``env_var``
    (a positive integer in ASCII digits, whitespace around it allowed),
    else ``default``. Anything else is a ValueError."""
    if override is not None:
        return as_integer(override, "budget", 1)
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    value = int(raw) if _SIGNED_INT.fullmatch(raw.strip()) else 0
    if value < 1:
        raise ValueError(f"{env_var} must be a positive integer, got {raw!r}")
    return value
