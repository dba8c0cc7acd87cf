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
if nothing fails the tree is complete and the CA is reversible. An
unbalanced rule fails at the root, so it is rejected without building
anything.

A frontier holds each node as fixed-width big-endian bytes, one lane of
``tree.lane_bytes(d)``, and advances one level at a time: the nodes not
yet expanded are packed side by side and ``tree.successors`` derives all
their children in one call per chunk. Bytes order equals ``bits`` order,
so the first violator, the budget count and every witness are those of a
node-by-node walk in ``bits`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop
from itertools import chain
from typing import Iterable, Mapping

from .errors import ResourceLimitError, read_budget
from .rules import Rule, format_rule, is_balanced
from .tree import (
    NodeClass,
    TreeNode,
    class_filter,
    edge_label,
    expected_edge_total,
    label_masks,
    lane_bytes,
    repeat_lanes,
    root,
    successors,
)

DEFAULT_NODE_BUDGET = 100_000
_NODE_BUDGET_ENV = "REVCA_NODE_BUDGET"
# Packed nodes per kernel call, in bytes. A call holds a few ints of this
# size at once, so the cap bounds what it adds to the frontiers' memory.
_CHUNK_BYTES = 32 * 1024

# Classes of the nodes the ring-closing edges at levels n-3 and n-2 lead
# to; the leaves after level n-1 are not checked.
_TAIL_CLASSES = (NodeClass.SECOND_LAST, NodeClass.LAST)


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


def _witness(rule: Rule, level: int, bits: int, m: int, expected: int) -> Witness:
    """The witness for the m-edge of the node ``bits`` at ``level``, whose
    RMT count differs from ``expected``."""
    node = TreeNode(rule.d, bits)
    actual = edge_label(node, rule, m).total()
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
    full tree. Inside, a node is its lane (see ``tree.lane_bytes``): the
    fixed-width big-endian bytes of its ``bits``, which hash once and sort
    in ``bits`` order. A frontier is a frozenset of them; ``levels``,
    ``frontier_at`` and witnesses turn them into ``TreeNode``. A frontier
    advances one level at a time: its nodes not yet expanded are packed
    side by side and expanded by one kernel call per chunk. Children are
    cached per node value (the cross-level repeat mechanism), and
    whole-frontier repeats give the (preperiod, period) pair used to index
    any level arithmetically. Ring-closing checks are cached per
    materialized frontier, so every decision sharing the closure reuses
    them.

    With ``fail_fast`` the sequence stops extending at the first level
    whose expansion violates the interior cardinality; deciders never
    need later frontiers in that case. ``frontier_closure`` builds the
    non-failing variant whose contract is the sequence itself.
    """

    def __init__(self, rule: Rule, node_budget: int | None = None, fail_fast: bool = True):
        self.rule = rule
        self.node_budget = read_budget(node_budget, _NODE_BUDGET_ENV, DEFAULT_NODE_BUDGET)
        self.fail_fast = fail_fast
        d = rule.d
        # every interior edge carries what level 0 of a 3-cell ring carries
        self._interior_total = expected_edge_total(0, 3, d)
        self._width = lane_bytes(d)
        # nodes per kernel call: the largest power of two that fits a chunk
        self._lanes = 1 << (_CHUNK_BYTES // self._width).bit_length() - 1
        self._masks = label_masks(rule)
        self._lane_masks = tuple(repeat_lanes(d, m, self._lanes) for m in self._masks)
        self._frontiers: list[frozenset[bytes]] = [frozenset([root(d).bits.to_bytes(self._width, "big")])]
        self._frontier_index: dict[frozenset[bytes], int] = {self._frontiers[0]: 0}
        self._violations: list[Witness | None] = []
        self._children: dict[bytes, tuple[bytes, ...]] = {}
        # checked node -> its first edge state off the interior total
        self._bad: dict[bytes, int] = {}
        self._tails: dict[int, tuple | None] = {}
        self.preperiod: int | None = None
        self.period: int | None = None
        self._aborted_at: int | None = None

    @property
    def closed(self) -> bool:
        return self.period is not None

    def _nodes(self, frontier: frozenset[bytes]) -> frozenset[TreeNode]:
        d = self.rule.d
        return frozenset(TreeNode(d, int.from_bytes(node, "big")) for node in frontier)

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
        """Compute the next frontier from the last one.

        Budget and violation mean what a node-by-node walk in sorted order
        would give: the witness is the first violator, and with
        ``fail_fast`` that walk would stop there, expanding no new node
        after it.
        """
        level = len(self._frontiers) - 1
        frontier = self._frontiers[-1]
        children, bad, want, masks = self._children, self._bad, self._interior_total, self._masks
        new = [node for node in frontier if node not in children]
        for node in new:
            bits = int.from_bytes(node, "big")
            for m, mask in enumerate(masks):
                if (bits & mask).bit_count() != want:
                    bad[node] = m
                    break
        first = min(frontier.intersection(bad), default=None)
        stop = first is not None and self.fail_fast
        counted = sum(node <= first for node in new) if stop else len(new)
        if len(children) + counted > self.node_budget:
            raise ResourceLimitError(
                f"more than {self.node_budget} distinct tree nodes; "
                f"raise the budget (env {_NODE_BUDGET_ENV}) to continue",
                frontier_sizes=self.frontier_sizes(),
                budget=self.node_budget,
            )
        self._violations.append(
            None if first is None else _witness(self.rule, level, int.from_bytes(first, "big"), bad[first], want)
        )
        if stop:
            self._aborted_at = level
            return
        d, width = self.rule.d, self._width
        for start in range(0, len(new), self._lanes):
            part = new[start : start + self._lanes]
            size = len(part) * width
            packed = int.from_bytes(b"".join(part), "big")
            kids = [
                [raw[i : i + width] for i in range(0, size, width)]
                for raw in (c.to_bytes(size, "big") for c in successors(d, packed, self._lane_masks, len(part)))
            ]
            children.update(zip(part, zip(*kids)))
        # copied from a set, a frozenset is sized to fit; grown from the
        # children it would keep the slack of every resize
        frontier = frozenset(set(chain.from_iterable(map(children.__getitem__, frontier))))
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
        if max_level < 0:
            return None
        while (
            len(self._violations) <= max_level
            and not self.closed
            and self._aborted_at is None
        ):
            self._advance()
        # Once closed, violations for levels >= preperiod repeat with the
        # period, and one full period is always materialized.
        return next((v for v in self._violations[: max_level + 1] if v is not None), None)

    def _level_index(self, level: int) -> int:
        """The materialized level holding the frontier of ``level``."""
        while level >= len(self._frontiers) and not self.closed:
            if self._aborted_at is not None:
                raise RuntimeError(
                    f"frontier {level} unavailable: expansion stopped at the "
                    f"level-{self._aborted_at} violation"
                )
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
            self._tails[key] = _check_tail(self.rule, self._frontiers[key])
        return self._tails[key]


def frontier_closure(rule: Rule, node_budget: int | None = None) -> FrontierClosure:
    """Compute frontiers until the sequence repeats, regardless of violations."""
    if not is_balanced(rule):
        raise ValueError("frontier closure is defined for balanced rules")
    closure = FrontierClosure(rule, node_budget=node_budget, fail_fast=False)
    try:
        while not closure.closed:
            closure._advance()
    except ResourceLimitError as exc:
        # as in decide_range: a kept error must not keep the tree alive
        del closure
        raise exc.with_traceback(None)
    return closure


def _check_tail(rule: Rule, frontier: Iterable[bytes]) -> tuple | None:
    """Check the three final edge levels from the level-(n-3) frontier,
    applying the two ring-closing filters. Depends only on the frontier.

    Depth first, each distinct child once per offset; the first failure is
    returned as (offset from level n-3, edge state, expected total, node
    bits).
    """
    d = rule.d
    masks = label_masks(rule)
    wants = tuple(expected_edge_total(offset, 3, d) for offset in range(3))
    filters = tuple(class_filter(d, node_class) for node_class in _TAIL_CLASSES)
    seen: tuple[set[int], set[int]] = (set(), set())

    def walk(nodes: Iterable[int], offset: int) -> tuple | None:
        want = wants[offset]
        for bits in nodes:
            children = successors(d, bits, masks) if offset < 2 else None
            for m, mask in enumerate(masks):
                if (bits & mask).bit_count() != want:
                    return offset, m, want, bits
                if children is None:
                    continue
                nxt = children[m] & filters[offset]
                if nxt in seen[offset]:
                    continue
                seen[offset].add(nxt)
                found = walk((nxt,), offset + 1)
                if found is not None:
                    return found
        return None

    # the walk usually stops within a few nodes: pop them in order from a
    # heap rather than sort the whole frontier
    heap = list(frontier)
    heapify(heap)
    return walk((int.from_bytes(heappop(heap), "big") for _ in range(len(heap))), 0)


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
    if n < 3:
        raise ValueError(f"cell count must be >= 3, got {n}")
    if node_budget is not None:
        if closure is not None:
            raise ValueError("pass a closure or a node_budget, not both: a closure has its own")
        read_budget(node_budget, _NODE_BUDGET_ENV, DEFAULT_NODE_BUDGET)
    if not is_balanced(rule):
        return Verdict(rule, n, False, _unbalanced_witness(rule), None, None, ())
    if closure is None:
        return decide_range(rule, n, n, node_budget)[n]
    if closure.rule is not rule and closure.rule != rule:
        raise ValueError("closure was built for a different rule")

    w = closure.first_interior_violation(n - 4)
    if w is None:
        tail = closure._tail_violation(n - 3)
        if tail is not None:
            offset, m, expected, bits = tail
            w = _witness(rule, n - 3 + offset, bits, m, expected)
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
    if not 3 <= n_lo <= n_hi:
        raise ValueError(f"need 3 <= n_lo <= n_hi, got {n_lo}..{n_hi}")
    closure = FrontierClosure(rule, node_budget=node_budget)
    try:
        return {n: decide(rule, n, closure) for n in range(n_lo, n_hi + 1)}
    except ResourceLimitError as exc:
        # The frames the error passed through hold the tree; a caller that
        # keeps the error must not keep the tree alive with it.
        del closure
        raise exc.with_traceback(None)
