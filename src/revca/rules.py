"""Local rules of 1-D three-neighborhood d-state cellular automata.

A rule is a table of d**3 next states indexed by *rule min term* (RMT):
the neighborhood triple (x, y, z) encoded as r = x*d**2 + y*d + z. The
canonical text form writes the table as next-state symbols with the entry
for RMT 0 as the rightmost digit.

Two families of RMT sets recur throughout the tree machinery:

* equivalent RMTs share their last two symbols (the incoming edges of one
  de Bruijn vertex): ``Equi(i) = {i, d**2 + i, ..., (d-1)*d**2 + i}``;
* sibling RMTs share their first two symbols (the outgoing edges of one
  de Bruijn vertex): ``Sibl(j) = {d*j, d*j + 1, ..., d*j + d - 1}``.

Both families partition [0, d**3) into d**2 cells of size d, and an RMT in
``Equi(i)`` can only be followed, in an overlapping neighborhood chain, by
an RMT from ``Sibl(i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import _SIGNED_INT, RuleFormatError

#: Hard cap on states per cell. d = 6 already means rule tables of
#: 216 entries and strategy families of size (6!)^36; anything larger is
#: far outside what the decision machinery is meant for.
MAX_STATES = 6


def validate_state_count(d: int) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"state count must be an int, got {d!r}")
    if d < 2 or d > MAX_STATES:
        raise ValueError(f"state count must be in [2, {MAX_STATES}], got {d}")
    return d


def validate_cell_count(n: int) -> int:
    """Check that ``n`` is a ring size: at least three cells, a window's width."""
    if n < 3:
        raise ValueError(f"cell count must be >= 3, got {n}")
    return n


def rmt_index(x: int, y: int, z: int, d: int) -> int:
    """Encode the neighborhood triple (x, y, z) as an RMT index."""
    for s in (x, y, z):
        if not 0 <= s < d:
            raise ValueError(f"state {s} out of range [0, {d})")
    return x * d * d + y * d + z


def rmt_decompose(r: int, d: int) -> tuple[int, int, int]:
    """Recover the neighborhood triple (x, y, z) from an RMT index."""
    if not 0 <= r < d ** 3:
        raise ValueError(f"RMT {r} out of range [0, {d ** 3})")
    return r // (d * d), (r // d) % d, r % d


@lru_cache(maxsize=None)
def _equi_sets(d: int) -> tuple[tuple[int, ...], ...]:
    """Every Equi(i), i in [0, d**2), each in ascending order."""
    dd = d * d
    return tuple(tuple(range(i, d ** 3, dd)) for i in range(dd))


@lru_cache(maxsize=None)
def _sibl_sets(d: int) -> tuple[tuple[int, ...], ...]:
    """Every Sibl(j), j in [0, d**2), each in ascending order."""
    return tuple(tuple(range(d * j, d * j + d)) for j in range(d * d))


def equi_set(i: int, d: int) -> tuple[int, ...]:
    """The d RMTs equivalent to RMT i (equal last two symbols), ascending."""
    validate_state_count(d)
    if not 0 <= i < d * d:
        raise ValueError(f"equivalent-set index {i} out of range [0, {d * d})")
    return _equi_sets(d)[i]


def sibl_set(j: int, d: int) -> tuple[int, ...]:
    """The d RMTs sibling to each other under index j (equal first two
    symbols), ascending."""
    validate_state_count(d)
    if not 0 <= j < d * d:
        raise ValueError(f"sibling-set index {j} out of range [0, {d * d})")
    return _sibl_sets(d)[j]


@dataclass(frozen=True)
class Rule:
    """A d-state local rule: ``table[r]`` is the next state of RMT r."""

    d: int
    table: tuple[int, ...]
    #: per-state bitmasks: value_masks[m] has bit r set iff table[r] == m
    value_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_state_count(self.d)
        table = tuple(self.table)
        if len(table) != self.d ** 3:
            raise ValueError(
                f"rule table must have {self.d ** 3} entries, got {len(table)}"
            )
        masks = [0] * self.d
        for r, v in enumerate(table):
            if not 0 <= v < self.d:
                raise ValueError(f"table entry {v} at RMT {r} out of range [0, {self.d})")
            masks[v] |= 1 << r
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "value_masks", tuple(masks))

    def __getitem__(self, r: int) -> int:
        return self.table[r]

    def next_state(self, x: int, y: int, z: int) -> int:
        return self.table[rmt_index(x, y, z, self.d)]

    def state_counts(self) -> tuple[int, ...]:
        """Occurrences of each state in the table."""
        return tuple(m.bit_count() for m in self.value_masks)

    def __str__(self) -> str:
        return format_rule(self)


def is_balanced(rule: Rule) -> bool:
    """True iff every state occurs exactly d**2 times in the table."""
    want = rule.d * rule.d
    return all(c == want for c in rule.state_counts())


def read_states(fields: Sequence[str], comma: bool) -> list[int]:
    """The integers written in ``fields``: comma-separated entries with an
    optional sign, or single digits. Only ASCII digits count; ``int`` and
    ``str.isdigit`` also take other scripts' digits and ``_`` separators."""
    for pos, entry in enumerate(fields):
        if comma and not _SIGNED_INT.fullmatch(entry):
            raise RuleFormatError(f"bad entry {entry!r} at field {pos}", pos)
        if not comma and not "0" <= entry <= "9":
            raise RuleFormatError(f"non-digit {entry!r} at position {pos}", pos)
    return [int(entry) for entry in fields]


def parse_rule(text: str, d: int) -> Rule:
    """Parse a rule string (digits, or comma-separated ints).

    The rightmost symbol is the next state of RMT 0, the leftmost of
    RMT d**3 - 1.
    """
    validate_state_count(d)
    text = text.strip()
    comma = "," in text
    if comma:
        fields = [p.strip() for p in text.split(",")]
        if len(fields) != d ** 3:
            raise RuleFormatError(
                f"expected {d ** 3} comma-separated entries, got {len(fields)}"
            )
    else:
        if len(text) != d ** 3:
            raise RuleFormatError(
                f"expected {d ** 3} digits for d={d}, got {len(text)}"
            )
        fields = text
    values = read_states(fields, comma)
    for pos, v in enumerate(values):
        if not 0 <= v < d:
            raise RuleFormatError(
                f"symbol {v} at position {pos} is not a valid state for d={d}", pos
            )
    # text order is f[d^3-1] ... f[0]
    return Rule(d, tuple(reversed(values)))


def format_rule(rule: Rule) -> str:
    """Canonical text form; inverse of :func:`parse_rule`."""
    return "".join(str(v) for v in reversed(rule.table))
