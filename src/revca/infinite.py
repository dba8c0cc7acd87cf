"""Injectivity of the global map on the unbounded lattice.

Two distinct bi-infinite configurations with equal images trace a
bi-infinite path through the matched-output pair graph (``pairs``). With
at most one edge between two vertices, a pair cycle's two coordinate
label paths differ exactly when it visits an off-diagonal pair.
Divergent histories that reconverge (equal tails) also close into such
a cycle because the de Bruijn graph is strongly connected. Hence:

    the map is non-injective  iff  some off-diagonal pair lies on a cycle,

and looping that cycle yields two distinct spatially periodic
configurations with the same image -- the returned witness, which
``pairs.collision_cycle`` finds.

Theorem: a rule injective on the lattice is reversible on the n-cell ring
for every n >= 3. Two distinct n-rings with one image, each repeated with
period n, are two distinct bi-infinite configurations with one image,
because the update of a periodic configuration repeats the ring update.
The converse fails: a rule can be reversible at some n, even at
infinitely many, without being injective on the lattice.

Theorem: a rule reversible on the n-cell ring for every n in
3..max(4, d^4) is injective on the lattice. If it is not injective, the
witness cycle is a shortest cycle through a pair, so it repeats no pair
and its length L is at most d^4, the number of pairs. Its coordinates, looped
ceil(3/L) times, are two n*-cell rings, n* = L*ceil(3/L): distinct,
because the cycle visits an off-diagonal pair, and with one image,
because its edges match outputs. So the rule is irreversible at n*,
which is 3 for L = 1, 4 for L = 2 and L <= d^4 otherwise. With the
theorem above, injectivity on the lattice is reversibility at every n
in that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .decider import decide_range
from .pairs import Pair, collision_cycle
from .rules import Rule, format_rule, validate_cell_range, validate_state_count


@dataclass(frozen=True)
class InjectivityWitness:
    """A matched-output pair cycle whose coordinate paths differ.

    ``pairs[i]`` steps to ``pairs[(i+1) % len]``; the two preimage words
    read off the left and right coordinates are distinct and map to the
    same output word (all spatially periodic with the cycle length).
    """

    pairs: tuple[Pair, ...]
    left_rmts: tuple[int, ...]
    right_rmts: tuple[int, ...]
    outputs: tuple[int, ...]


@dataclass(frozen=True)
class InjectivityResult:
    rule: Rule
    injective: bool
    witness: InjectivityWitness | None

    def to_dict(self) -> dict:
        w = self.witness
        return {
            "schema": "revca/injectivity:1",
            "rule": format_rule(self.rule),
            "d": self.rule.d,
            "injective": self.injective,
            "witness": None if w is None else {
                "pairs": [[list(a), list(b)] for a, b in w.pairs],
                "left_rmts": list(w.left_rmts),
                "right_rmts": list(w.right_rmts),
                "outputs": list(w.outputs),
            },
        }


def infinite_injective(rule: Rule) -> InjectivityResult:
    """Test injectivity of the rule's global map on the unbounded lattice."""
    cycle = collision_cycle(rule)
    if cycle is None:
        return InjectivityResult(rule, True, None)
    pairs, left, right = cycle
    outputs = tuple(rule.table[r] for r in left)
    return InjectivityResult(rule, False, InjectivityWitness(pairs, left, right, outputs))


@dataclass(frozen=True)
class RuleExperiment:
    rule: Rule
    injective: bool
    verdicts: dict[int, bool]  # n -> reversible


@dataclass(frozen=True)
class ConjectureReport:
    """Reversibility on the unbounded lattice versus on every tested ring
    size. ``counterexamples`` (injective rules irreversible at some tested
    n) is empty by the theorem in the module docstring, so a non-empty
    list means a defect in the decider or in ``infinite_injective``.
    ``finite_only`` holds the rules reversible at some tested n that are
    not injective on the lattice."""

    d: int
    n_lo: int
    n_hi: int
    rows: tuple[RuleExperiment, ...]

    @property
    def counterexamples(self) -> tuple[RuleExperiment, ...]:
        return tuple(r for r in self.rows if r.injective and not all(r.verdicts.values()))

    @property
    def finite_only(self) -> tuple[RuleExperiment, ...]:
        return tuple(r for r in self.rows if not r.injective and any(r.verdicts.values()))

    def to_dict(self) -> dict:
        return {
            "schema": "revca/conjecture-report:1",
            "d": self.d,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "note": "empirical evidence over the tested rules and ring sizes only",
            "rows": [
                {
                    "rule": format_rule(r.rule),
                    "infinite_injective": r.injective,
                    "reversible_for": sorted(n for n, ok in r.verdicts.items() if ok),
                }
                for r in self.rows
            ],
            "counterexamples": [format_rule(r.rule) for r in self.counterexamples],
            "finite_only": [format_rule(r.rule) for r in self.finite_only],
        }


def conjecture_experiment(d: int, rules: Iterable[Rule], n_lo: int, n_hi: int) -> ConjectureReport:
    """Cross 'injective on the unbounded lattice' with per-n ring verdicts."""
    d, (n_lo, n_hi) = validate_state_count(d), validate_cell_range(n_lo, n_hi)
    rows = []
    for rule in rules:
        if rule.d != d:
            raise ValueError(f"rule {format_rule(rule)} is not a {d}-state rule")
        verdicts = {n: v.reversible for n, v in decide_range(rule, n_lo, n_hi).items()}
        rows.append(RuleExperiment(rule, infinite_injective(rule).injective, verdicts))
    return ConjectureReport(d, n_lo, n_hi, tuple(rows))
