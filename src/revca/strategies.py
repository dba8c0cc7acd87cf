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

from .rules import MAX_STATES, Rule, validate_state_count

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
    out = []
    for _ in range(count):
        out.append(index % base)
        index //= base
    return out


def rule_at(strategy: str, d: int, index: int) -> Rule:
    """Decode a family index into its rule (O(d**3), no enumeration)."""
    size = strategy_family_size(strategy, d)
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range [0, {size}) for strategy {strategy}")
    perms = _perms(d)
    dd = d * d
    table = [0] * d ** 3
    if strategy == "I":
        # one permutation per equivalent set: table[k*d^2 + i] = perm_i[k]
        for i, digit in enumerate(_digits(index, len(perms), dd)):
            perm = perms[digit]
            for k in range(d):
                table[k * dd + i] = perm[k]
    elif strategy == "II":
        # one permutation per sibling set: table[d*j + k] = perm_j[k]
        for j, digit in enumerate(_digits(index, len(perms), dd)):
            perm = perms[digit]
            for k in range(d):
                table[d * j + k] = perm[k]
    else:
        # sibling sets constant; blocks of d sibling sets get their values
        # from one shared permutation (arm A) or one permutation per block
        # (arm B).
        if index < len(perms):
            block_values = [[perms[index][b]] * d for b in range(d)]
        else:
            digits = _digits(index - len(perms), len(perms), d)
            block_values = [list(perms[digit]) for digit in digits]
        for b in range(d):
            for t in range(d):
                j = b * d + t
                v = block_values[b][t]
                for k in range(d):
                    table[d * j + k] = v
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
    dd = d * d
    perms = _perms(d)
    perm_index = {p: i for i, p in enumerate(perms)}
    strategy_family_size(strategy, d)  # validates the strategy name
    if strategy in ("I", "II"):
        digits = []
        for s in range(dd):
            if strategy == "I":
                column = tuple(rule.table[k * dd + s] for k in range(d))
            else:
                column = tuple(rule.table[d * s + k] for k in range(d))
            digit = perm_index.get(column)
            if digit is None:
                return None
            digits.append(digit)
        index = 0
        for digit in reversed(digits):
            index = index * len(perms) + digit
        return index
    # Strategy III: all sibling sets constant, then arm A or arm B.
    values = []
    for j in range(dd):
        block = {rule.table[d * j + k] for k in range(d)}
        if len(block) != 1:
            return None
        values.append(next(iter(block)))
    blocks = [tuple(values[b * d : (b + 1) * d]) for b in range(d)]
    if all(len(set(bv)) == 1 for bv in blocks):
        shared = tuple(bv[0] for bv in blocks)
        digit = perm_index.get(shared)
        return None if digit is None else digit
    digits = []
    for bv in blocks:
        digit = perm_index.get(bv)
        if digit is None:
            return None
        digits.append(digit)
    index = 0
    for digit in reversed(digits):
        index = index * len(perms) + digit
    return len(perms) + index


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
    validate_state_count(d, max_states=MAX_STATES)
    rng = random.Random(seed)
    base: Sequence[int] = [m for m in range(d) for _ in range(d * d)]
    out = []
    for _ in range(count):
        table = list(base)
        rng.shuffle(table)
        out.append(Rule(d, tuple(table)))
    return out
