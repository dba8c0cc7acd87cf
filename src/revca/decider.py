"""Reversibility decision via the minimized reachability tree.

The direct tree of an n-cell CA has d**n leaves, but only the *set of
distinct node values* per level matters: equal values root equal
subtrees. The per-level frontier of unique values evolves by a map that
does not depend on the level (interior derivation is level-free), and
since node values live in a finite set the frontier sequence is
eventually periodic: frontier(q + p) == frontier(q) for a minimal
preperiod q and period p. That turns the decision for any n into

* checking the interior edge cardinality (d**2 RMTs per label) on the
  expansions of frontiers 0 .. n-4, which for n beyond the closure is a
  scan of the finitely many computed expansions;
* locating frontier(n-3) arithmetically and pushing it through the two
  ring-closing filters, where labels must carry d and then exactly one
  RMT.

Any failed cardinality check certifies irreversibility with a witness;
if nothing fails the tree is complete and the CA is reversible. A
surjective rule skips the interior check, which it cannot fail. Such a
rule gives every word exactly d**2 preimages (Hedlund 1969), no two with
equal first two and last two cells (a diamond, ``pairs``), so an interior
label, one (start window, last RMT) per preimage, carries d**2 RMTs; one
search of the pair graph (``pairs.is_surjective``) tells, once per rule. An
unbalanced rule fails at the root, so it is rejected with its closure
built but never advanced. The frontier sequence is one lazy sequence per
rule, computed only as far as callers ask; a decision never asks past
the first violating level.

A frontier is a frozenset of small-int node ids, handed out in discovery
order the first time a node value is seen, so the nodes not yet expanded
are the ids from the expanded count on. Each node is kept as its lane
(``tree.lane_bytes``: the fixed-width big-endian bytes of ``bits``).
``tree`` makes every check on a node value: ``first_violator`` checks a
level's new lanes, ``ring_closing_violation`` walks a frontier through
the ring-closing levels, and ``expand_lanes`` derives the children. This
module only sequences ids and frontiers. Bytes order equals ``bits``
order, so the first violator, the budget count and every witness are
those of a node-by-node walk in bits order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from typing import Mapping

from .errors import ResourceLimitError, as_integer, read_budget
from .pairs import is_surjective
from .rules import Rule, format_rule, is_balanced, validate_cell_count, validate_cell_range
from .tree import (
    TreeNode,
    expand_lanes,
    first_violator,
    label_masks,
    lane_bytes,
    ring_closing_violation,
    root,
)

DEFAULT_NODE_BUDGET = 100_000
_NODE_BUDGET_ENV = "REVCA_NODE_BUDGET"


@dataclass(frozen=True)
class Witness:
    """Why a CA is irreversible.

    ``kind`` is "unbalanced" (rejected before building the tree) or
    "edge_total" (an edge label at ``level`` carried ``actual`` RMTs where
    a complete tree needs ``expected``).
    """

    kind: str
    detail: str
    level: int | None = None
    edge_state: int | None = None
    expected: int | None = None
    actual: int | None = None
    node: TreeNode | None = None


def _witness(d: int, level: int, m: int, expected: int, actual: int, bits: int) -> Witness:
    """The witness for the m-edge of the node ``bits`` at ``level``, which
    carries ``actual`` RMTs where ``expected`` are needed."""
    node = TreeNode(d, bits)
    return Witness(
        kind="edge_total",
        detail=(
            f"level {level}: edge for state {m} carries "
            f"{actual} RMTs, a complete tree needs {expected}"
        ),
        level=level,
        edge_state=m,
        expected=expected,
        actual=actual,
        node=node,
    )


@dataclass(frozen=True)
class Verdict:
    rule: Rule
    n: int
    reversible: bool
    witness: Witness | None
    preperiod: int | None
    period: int | None
    frontier_sizes: tuple[int, ...]

    @property
    def outcome(self) -> str:
        return "reversible" if self.reversible else "irreversible"

    def to_dict(self) -> dict:
        return {
            "schema": "revca/verdict:1",
            "rule": format_rule(self.rule),
            "d": self.rule.d,
            "n": self.n,
            "outcome": self.outcome,
            "witness_level": None if self.witness is None else self.witness.level,
            "witness_detail": None if self.witness is None else self.witness.detail,
            "q": self.preperiod,
            "p": self.period,
            "frontier_sizes": list(self.frontier_sizes),
        }


class FrontierClosure:
    """Lazily computed frontier sequence of one rule.

    ``frontier_at(l)`` is the frozenset of node values at level l of the
    full tree. Inside, three tables intern the nodes: ``_ids`` maps a
    lane (see ``tree.lane_bytes``) to its id, ``_lane`` lists the lanes
    by id, and ``_children[m]`` the id of every expanded node's m-child.
    A frontier is a frozenset of ids; ``levels``, ``frontier_at`` and
    witnesses turn them into ``TreeNode``. A node is expanded, and its
    child lanes looked up, once however often it recurs; whole-frontier
    repeats give the (preperiod, period) pair used to index any level
    arithmetically. Ring-closing checks are cached per materialized
    frontier, so every decision sharing the closure reuses them.

    The sequence goes only as far as callers ask. Levels are checked for
    the interior cardinality until one violates; that level stays
    unexpanded, so a decision stops at its witness. Asking for a later
    frontier (``frontier_at``, a tail check, ``frontier_closure``)
    expands it and the levels after it unchecked.
    """

    def __init__(self, rule: Rule, node_budget: int | None = None):
        self.rule = rule
        self.node_budget = read_budget(node_budget, _NODE_BUDGET_ENV, DEFAULT_NODE_BUDGET)
        d = rule.d
        self._masks = label_masks(rule)
        # surjective implies balanced, and the search costs more than the test
        self._surjective = is_balanced(rule) and is_surjective(rule)
        # the root is id 0; looking up an unseen lane hands out the next id
        self._lane = [root(d).bits.to_bytes(lane_bytes(d), "big")]
        self._ids: defaultdict[bytes, int] = defaultdict(count(1).__next__, {self._lane[0]: 0})
        self._children: tuple[list[int], ...] = tuple([] for _ in range(d))
        self._frontiers: list[frozenset[int]] = [frozenset([0])]
        self._frontier_index: dict[frozenset[int], int] = {self._frontiers[0]: 0}
        self._violation: Witness | None = None
        self._tails: dict[int, tuple | None] = {}
        self.preperiod: int | None = None
        self.period: int | None = None

    @property
    def closed(self) -> bool:
        return self.period is not None

    def _nodes(self, frontier: frozenset[int]) -> frozenset[TreeNode]:
        d, lane = self.rule.d, self._lane
        return frozenset(TreeNode(d, int.from_bytes(lane[i], "big")) for i in frontier)

    @property
    def levels(self) -> tuple[frozenset[TreeNode], ...]:
        """The materialized frontier sequence."""
        return tuple(self._nodes(f) for f in self._frontiers)

    @property
    def levels_computed(self) -> int:
        return len(self._frontiers)

    def frontier_sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self._frontiers)

    def _advance(self) -> None:
        """Check the last frontier, or expand it into the next one.

        Budget and violation mean what a node-by-node walk in sorted order
        would give. While no violation is known, a violating frontier
        yields its first violator, counts only the new nodes up to it and
        stays unexpanded; any other counts all its new nodes and expands.
        """
        level = len(self._frontiers) - 1
        frontier = self._frontiers[-1]
        children, ids = self._children, self._ids
        expanded = len(children[0])
        new = self._lane[expanded:]
        counted, witness = len(new), None
        # a node already expanded passed its check at an earlier level, and a
        # surjective rule's nodes pass it: d**2 preimages, no diamond (module docstring)
        check = self._violation is None and not self._surjective
        found = first_violator(new, self._masks) if check else None
        if found is not None:
            counted, *label = found
            witness = _witness(self.rule.d, level, *label)
        if expanded + counted > self.node_budget:
            raise ResourceLimitError(
                f"more than {self.node_budget} distinct tree nodes; "
                f"raise the budget (env {_NODE_BUDGET_ENV}) to continue",
                frontier_sizes=self.frontier_sizes(),
                budget=self.node_budget,
            )
        if witness is not None:
            self._violation = witness
            return
        for chunk in expand_lanes(self.rule.d, new, self._masks):
            # a child lane is hashed and compared only here, when it is looked up
            for column, kids in zip(children, chunk):
                column.extend(map(ids.__getitem__, kids))
        self._lane.extend(islice(ids, len(self._lane), None))
        # copied from a set, a frozenset is sized to fit; grown from the
        # children it would keep the slack of every resize
        frontier = frozenset(set(chain.from_iterable(map(column.__getitem__, frontier) for column in children)))
        self._frontiers.append(frontier)
        seen_at = self._frontier_index.get(frontier)
        if seen_at is not None:
            self.preperiod = seen_at
            self.period = len(self._frontiers) - 1 - seen_at
        else:
            self._frontier_index[frontier] = len(self._frontiers) - 1

    def first_interior_violation(self, max_level: int) -> Witness | None:
        """Lowest-level interior cardinality violation among edge levels
        0..max_level of the full tree, if any."""
        # levels 0..len-2 are checked, and a closed sequence repeats them
        while self._violation is None and not self.closed and len(self._frontiers) <= max_level + 1:
            self._advance()
        w = self._violation
        return w if w is not None and w.level <= max_level else None

    def _level_index(self, level: int) -> int:
        """The materialized level holding the frontier of ``level``."""
        level = as_integer(level, "level", 0)
        while level >= len(self._frontiers) and not self.closed:
            self._advance()
        if level < len(self._frontiers):
            return level
        q, p = self.preperiod, self.period
        return q + (level - q) % p

    def frontier_at(self, level: int) -> frozenset[TreeNode]:
        return self._nodes(self._frontiers[self._level_index(level)])

    def _tail_violation(self, level: int) -> tuple | None:
        """The ring-closing check of frontier ``level`` taken as level n-3."""
        key = self._level_index(level)
        if key not in self._tails:
            lanes = map(self._lane.__getitem__, self._frontiers[key])
            self._tails[key] = ring_closing_violation(self.rule.d, self._masks, lanes)
        return self._tails[key]


def frontier_closure(rule: Rule, node_budget: int | None = None) -> FrontierClosure:
    """Compute frontiers until the sequence repeats, regardless of violations."""
    if not is_balanced(rule):
        raise ValueError("frontier closure is defined for balanced rules")
    closure = FrontierClosure(rule, node_budget=node_budget)
    try:
        while not closure.closed:
            closure._advance()
    except ResourceLimitError as exc:
        # as in decide_range: a kept error must not keep the tree alive
        del closure
        raise exc.with_traceback(None)
    return closure


def _unbalanced_witness(rule: Rule) -> Witness:
    counts = ", ".join(f"{m}:{c}" for m, c in enumerate(rule.state_counts()))
    return Witness(
        kind="unbalanced",
        detail=f"state counts {counts} differ from {rule.d * rule.d} each",
    )


def decide(
    rule: Rule,
    n: int,
    closure: FrontierClosure | None = None,
    node_budget: int | None = None,
) -> Verdict:
    """Decide reversibility of the n-cell CA under ``rule``."""
    n = validate_cell_count(n)
    if closure is None:
        # the closure reads and checks the budget, for every rule
        return decide_range(rule, n, n, node_budget)[n]
    if node_budget is not None:
        raise ValueError("pass a closure or a node_budget, not both: a closure has its own")
    if not is_balanced(rule):
        return Verdict(rule, n, False, _unbalanced_witness(rule), None, None, ())
    if closure.rule is not rule and closure.rule != rule:
        raise ValueError("closure was built for a different rule")

    w = closure.first_interior_violation(n - 4)
    if w is None:
        tail = closure._tail_violation(n - 3)
        if tail is not None:
            offset, *label = tail
            w = _witness(rule.d, n - 3 + offset, *label)
    return Verdict(
        rule, n, w is None, w, closure.preperiod, closure.period, closure.frontier_sizes()
    )


def decide_range(
    rule: Rule,
    n_lo: int,
    n_hi: int,
    node_budget: int | None = None,
) -> Mapping[int, Verdict]:
    """Decide every cell count in [n_lo, n_hi], sharing one closure."""
    n_lo, n_hi = validate_cell_range(n_lo, n_hi)
    closure = FrontierClosure(rule, node_budget=node_budget)
    try:
        return {n: decide(rule, n, closure) for n in range(n_lo, n_hi + 1)}
    except ResourceLimitError as exc:
        # The frames the error passed through hold the tree; a caller that
        # keeps the error must not keep the tree alive with it.
        del closure
        raise exc.with_traceback(None)
