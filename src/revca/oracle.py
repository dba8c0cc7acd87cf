"""Brute-force ground truth for the decision procedure.

Enumerates every configuration of the n-cell ring as a base-d integer,
evaluates the global map vectorized over the whole space, and reads
bijectivity off the image histogram. Strictly a correctness oracle and
experiment tool, not a performance path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, read_budget
from .evolution import Configuration
from .rules import Rule, format_rule, validate_cell_count

DEFAULT_ORACLE_BUDGET = 10_000_000
_ORACLE_BUDGET_ENV = "REVCA_ORACLE_BUDGET"


@dataclass(frozen=True)
class GlobalMapSummary:
    rule: Rule
    n: int
    image_size: int
    max_indegree: int

    @property
    def d(self) -> int:
        return self.rule.d

    @property
    def bijective(self) -> bool:
        return self.image_size == self.d ** self.n

    def to_dict(self) -> dict:
        return {
            "schema": "revca/global-map:1",
            "rule": format_rule(self.rule),
            "d": self.d,
            "n": self.n,
            "space": self.d ** self.n,
            "image_size": self.image_size,
            "max_indegree": self.max_indegree,
            "bijective": self.bijective,
        }


def _preimage_counts(rule: Rule, n: int, budget: int | None) -> np.ndarray:
    """counts[v] = number of preimages of ring v, for all d**n rings."""
    validate_cell_count(n)
    d = rule.d
    limit = read_budget(budget, _ORACLE_BUDGET_ENV, DEFAULT_ORACLE_BUDGET)
    # d**n > limit whenever n > limit.bit_length(), since d >= 2; deciding
    # that first never builds (or prints) a giant d**n
    if n > limit.bit_length() or d ** n > limit:
        raise ResourceLimitError(
            f"{d}^{n} configurations exceed the oracle budget {limit} "
            f"(env {_ORACLE_BUDGET_ENV})"
        )
    size = d ** n
    table = np.asarray(rule.table, dtype=np.int64)
    configs = np.arange(size, dtype=np.int64)
    # cell i has place value d**(n-1-i); ``ext`` appends the ring's first two
    # cells, so window i is the three digits of ``ext`` from d**(n-1-i) up
    ext = configs * (d * d) + configs // d ** (n - 2)
    succ = np.zeros(size, dtype=np.int64)
    for i in range(n):
        place = d ** (n - 1 - i)
        succ += table[ext // place % d ** 3] * place
    return np.bincount(succ, minlength=size)


def oracle_is_reversible(rule: Rule, n: int, budget: int | None = None) -> GlobalMapSummary:
    """Exhaustively evaluate the global map and summarize its image."""
    counts = _preimage_counts(rule, n, budget)
    return GlobalMapSummary(
        rule=rule,
        n=n,
        image_size=int(np.count_nonzero(counts)),
        max_indegree=int(counts.max()),
    )


def find_nonreachable(
    rule: Rule, n: int, limit: int | None = None, budget: int | None = None
) -> list[Configuration]:
    """Configurations with no predecessor, in lexicographic order; at most
    ``limit`` of them when it is given."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    missing = np.flatnonzero(_preimage_counts(rule, n, budget) == 0)[:limit]
    d = rule.d
    out = []
    for u in missing.tolist():
        cells = []
        for _ in range(n):
            cells.append(u % d)
            u //= d
        out.append(tuple(reversed(cells)))
    return out
