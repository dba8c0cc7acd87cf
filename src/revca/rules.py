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

from .errors import _SIGNED_INT, RuleFormatError, as_integer

#: Hard cap on states per cell. d = 6 already means rule tables of
#: 216 entries and strategy families of size (6!)^36; anything larger is
#: far outside what the decision machinery is meant for.
MAX_STATES = 6


def validate_state_count(d: int) -> int:
    return as_integer(d, "state count", 2, MAX_STATES)


def validate_cell_count(n: int) -> int:
    """``n`` as a plain int if it is a ring size: an integer (not a bool) of
    at least three cells, a window's width."""
    return as_integer(n, "cell count", 3)


def validate_cell_range(n_lo: int, n_hi: int) -> tuple[int, int]:
    """``(n_lo, n_hi)`` as plain ints if they bound a range of ring sizes,
    3 <= n_lo <= n_hi."""
    n_lo, n_hi = as_integer(n_lo, "cell count"), as_integer(n_hi, "cell count")
    if not 3 <= n_lo <= n_hi:
        raise ValueError(f"need 3 <= n_lo <= n_hi, got {n_lo}..{n_hi}")
    return n_lo, n_hi


def rmt_index(x: int, y: int, z: int, d: int) -> int:
    """Encode the neighborhood triple (x, y, z) as an RMT index."""
    d = validate_state_count(d)
    x, y, z = (as_integer(s, "state", 0, d - 1) for s in (x, y, z))
    return x * d * d + y * d + z


def rmt_decompose(r: int, d: int) -> tuple[int, int, int]:
    """Recover the neighborhood triple (x, y, z) from an RMT index."""
    d = validate_state_count(d)
    r = as_integer(r, "RMT", 0, d ** 3 - 1)
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
    d = validate_state_count(d)
    return _equi_sets(d)[as_integer(i, "equivalent-set index", 0, d * d - 1)]


def sibl_set(j: int, d: int) -> tuple[int, ...]:
    """The d RMTs sibling to each other under index j (equal first two
    symbols), ascending."""
    d = validate_state_count(d)
    return _sibl_sets(d)[as_integer(j, "sibling-set index", 0, d * d - 1)]


@dataclass(frozen=True)
class Rule:
    """A d-state local rule: ``table[r]`` is the next state of RMT r."""

    d: int
    table: tuple[int, ...]
    #: per-state bitmasks: value_masks[m] has bit r set iff table[r] == m
    value_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = validate_state_count(self.d)
        table = tuple(as_integer(v, "table entry") for v in self.table)
        if len(table) != d ** 3:
            raise ValueError(f"rule table must have {d ** 3} entries, got {len(table)}")
        masks = [0] * d
        for r, v in enumerate(table):
            if not 0 <= v < d:
                raise ValueError(f"table entry {v} at RMT {r} out of range [0, {d})")
            masks[v] |= 1 << r
        object.__setattr__(self, "d", d)
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


def read_states(text: str, d: int) -> list[int]:
    """The states written in ``text``: single digits, or comma-separated
    integers with an optional sign, each in [0, d). Every entry's syntax is
    checked before any value's range, and a RuleFormatError names the
    position (character, or field) at fault. Only ASCII digits count;
    ``int`` and ``str.isdigit`` also take other scripts' digits and ``_``."""
    d = validate_state_count(d)
    text = text.strip()
    comma = "," in text
    fields = [p.strip() for p in text.split(",")] if comma else text
    for pos, entry in enumerate(fields):
        if not (_SIGNED_INT.fullmatch(entry) if comma else "0" <= entry <= "9"):
            raise RuleFormatError(f"bad entry {entry!r} at position {pos}", pos)
    values = [int(entry) for entry in fields]
    for pos, v in enumerate(values):
        if not 0 <= v < d:
            raise RuleFormatError(f"state {v} at position {pos} is not valid for d={d}", pos)
    return values


def parse_rule(text: str, d: int) -> Rule:
    """Parse a rule string (see :func:`read_states`) of d**3 states.

    The rightmost symbol is the next state of RMT 0, the leftmost of
    RMT d**3 - 1.
    """
    values = read_states(text, d)
    if len(values) != d ** 3:
        raise RuleFormatError(f"expected {d ** 3} states for d={d}, got {len(values)}")
    # text order is f[d^3-1] ... f[0]
    return Rule(d, tuple(reversed(values)))


def format_rule(rule: Rule) -> str:
    """Canonical text form; inverse of :func:`parse_rule`."""
    return "".join(str(v) for v in reversed(rule.table))
