"""Candidate-reversible rule families and balanced-rule counting.

The three greedy families pick balanced rules whose reachability trees
stay balanced through the interior levels:

* Strategy I: within every equivalent set, the d RMTs get pairwise
  different next states (one permutation of the states per equivalent
  set) -- (d!)**(d**2) rules.
* Strategy II: the same, per sibling set -- (d!)**(d**2) rules.
* Strategy III: every sibling set is constant, and the d sibling sets of
  each block (sibling indices k*d .. k*d+d-1) either all share one value
  (one state permutation across blocks: d! rules) or take pairwise
  different values (one permutation per block: (d!)**d rules). The two
  arms are disjoint -- an assignment over d >= 2 sets cannot be both
  constant and injective -- so the family has exactly d! + (d!)**d rules.

Every family is an explicit index space (mixed radix over permutations),
so uniform sampling needs no enumeration.
"""

from __future__ import annotations

import itertools
import random
import sys
import warnings
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from .rules import Rule, _equi_sets, _sibl_sets, validate_state_count

STRATEGIES = ("I", "II", "III")


def count_balanced(d: int) -> int:
    """Exact number of balanced d-state rules: (d**3)! / ((d**2)!)**d."""
    if d < 2:
        raise ValueError("need at least 2 states")
    return factorial(d ** 3) // factorial(d * d) ** d


@lru_cache(maxsize=None)
def _perms(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(d)))


def strategy_family_size(strategy: str, d: int) -> int:
    validate_state_count(d)
    fact = factorial(d)
    if strategy in ("I", "II"):
        return fact ** (d * d)
    if strategy == "III":
        return fact + fact ** d
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def _digits(index: int, base: int, count: int) -> list[int]:
    """The ``count`` base-``base`` digits of ``index``, least significant first."""
    out = []
    for _ in range(count):
        out.append(index % base)
        index //= base
    return out


def _from_digits(digits: Sequence[int], base: int) -> int:
    """Inverse of :func:`_digits`."""
    index = 0
    for digit in reversed(digits):
        index = index * base + digit
    return index


def _rmt_sets(strategy: str, d: int) -> tuple[tuple[int, ...], ...]:
    """The sets a family spreads its permutations over: the equivalent
    sets for Strategy I, the sibling sets for Strategies II and III."""
    return _equi_sets(d) if strategy == "I" else _sibl_sets(d)


def rule_at(strategy: str, d: int, index: int) -> Rule:
    """Decode a family index into its rule (O(d**3), no enumeration)."""
    size = strategy_family_size(strategy, d)
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range [0, {size}) for strategy {strategy}")
    perms = _perms(d)
    if strategy != "III":
        # one permutation per set: the k-th RMT of set s gets perm_s[k]
        columns = [perms[digit] for digit in _digits(index, len(perms), d * d)]
    else:
        # sibling sets constant; the d sibling sets of block b get their
        # values from one shared permutation (arm A, entry b for all) or
        # from one permutation per block (arm B)
        if index < len(perms):
            values = [v for v in perms[index] for _ in range(d)]
        else:
            digits = _digits(index - len(perms), len(perms), d)
            values = [v for digit in digits for v in perms[digit]]
        columns = [(v,) * d for v in values]
    table = [0] * d ** 3
    for rmts, column in zip(_rmt_sets(strategy, d), columns):
        for r, v in zip(rmts, column):
            table[r] = v
    return Rule(d, tuple(table))


def enumerate_strategy(strategy: str, d: int) -> Iterator[Rule]:
    """Stream the whole family in index order."""
    for index in range(strategy_family_size(strategy, d)):
        yield rule_at(strategy, d, index)


def strategy_index_of(strategy: str, rule: Rule) -> int | None:
    """The rule's index in the family, or None if it is not a member.

    Inverse of :func:`rule_at`; membership can be checked without
    enumerating the (d!)**(d**2)-sized families.
    """
    d = rule.d
    strategy_family_size(strategy, d)  # validates the strategy name
    perms = _perms(d)
    perm_index = {p: i for i, p in enumerate(perms)}
    columns = [tuple(rule.table[r] for r in rmts) for rmts in _rmt_sets(strategy, d)]
    if strategy != "III":
        digits = [perm_index.get(column) for column in columns]
        return None if None in digits else _from_digits(digits, len(perms))
    # Strategy III: all sibling sets constant, then arm A or arm B.
    if any(len(set(column)) != 1 for column in columns):
        return None
    blocks = [tuple(column[0] for column in columns[b * d : (b + 1) * d]) for b in range(d)]
    if all(len(set(bv)) == 1 for bv in blocks):
        return perm_index.get(tuple(bv[0] for bv in blocks))
    digits = [perm_index.get(bv) for bv in blocks]
    return None if None in digits else len(perms) + _from_digits(digits, len(perms))


def sample_strategy(strategy: str, d: int, count: int, seed: int) -> list[Rule]:
    """Uniform sample without replacement, reproducible for a given seed.

    A count at or beyond the family size returns the whole family in
    enumeration order (with a warning).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    size = strategy_family_size(strategy, d)
    if count >= size:
        if count > size:
            warnings.warn(
                f"requested {count} rules but strategy {strategy} for d={d} "
                f"has only {size}; returning the whole family"
            )
        return list(enumerate_strategy(strategy, d))
    rng = random.Random(seed)
    if size <= sys.maxsize:
        indices = rng.sample(range(size), count)
    else:
        # random.sample needs len(range(size)), which overflows here; this
        # is its own draw-and-reject loop for large populations
        picked: dict[int, None] = {}
        while len(picked) < count:
            picked[rng.randrange(size)] = None
        indices = list(picked)
    return [rule_at(strategy, d, i) for i in indices]


def random_balanced_rules(d: int, count: int, seed: int) -> list[Rule]:
    """Uniform balanced rules: a seeded shuffle of the balanced multiset."""
    validate_state_count(d)
    rng = random.Random(seed)
    base: Sequence[int] = [m for m in range(d) for _ in range(d * d)]
    out = []
    for _ in range(count):
        table = list(base)
        rng.shuffle(table)
        out.append(Rule(d, tuple(table)))
    return out
