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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ResourceLimitError, read_budget
from .rules import Rule, format_rule, is_balanced
from .tree import NodeClass, TreeNode, child, edge_label, expected_edge_total, root

DEFAULT_NODE_BUDGET = 100_000
_NODE_BUDGET_ENV = "REVCA_NODE_BUDGET"

# Classes of the nodes the ring-closing edges at levels n-3, n-2 and n-1
# lead to; leaves (after n-1) are not checked.
_TAIL_CLASSES = (NodeClass.SECOND_LAST, NodeClass.LAST, None)


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


def _witness(rule: Rule, level: int, node: TreeNode, m: int, expected: int) -> Witness:
    """The witness for the m-edge of ``node`` at ``level``, whose RMT
    count differs from ``expected``."""
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

    ``frontiers[l]`` is the frozenset of node values at level l of the
    full tree. Expansion results are cached per node value (the
    cross-level repeat mechanism), and whole-frontier repeats give the
    (preperiod, period) pair used to index any level arithmetically.
    Ring-closing checks are cached per materialized frontier, so every
    decision sharing the closure reuses them.

    With ``fail_fast`` the sequence stops extending at the first level
    whose expansion violates the interior cardinality; deciders never
    need later frontiers in that case. ``frontier_closure`` builds the
    non-failing variant whose contract is the sequence itself.
    """

    def __init__(self, rule: Rule, node_budget: int | None = None, fail_fast: bool = True):
        self.rule = rule
        self.node_budget = read_budget(node_budget, _NODE_BUDGET_ENV, DEFAULT_NODE_BUDGET)
        self.fail_fast = fail_fast
        # every interior edge carries what level 0 of a 3-cell ring carries
        self._interior_total = expected_edge_total(0, 3, rule.d)
        self.frontiers: list[frozenset[TreeNode]] = [frozenset([root(rule.d)])]
        self._frontier_index: dict[frozenset[TreeNode], int] = {self.frontiers[0]: 0}
        self._violations: list[Witness | None] = []
        # node -> (children, first edge state off the interior total)
        self._expansions: dict[TreeNode, tuple[tuple[TreeNode, ...], int | None]] = {}
        self._tails: dict[int, tuple | None] = {}
        self.preperiod: int | None = None
        self.period: int | None = None
        self._aborted_at: int | None = None

    @property
    def closed(self) -> bool:
        return self.period is not None

    @property
    def levels(self) -> tuple[frozenset[TreeNode], ...]:
        """The materialized frontier sequence."""
        return tuple(self.frontiers)

    @property
    def levels_computed(self) -> int:
        return len(self.frontiers)

    def frontier_sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.frontiers)

    def _expand(self, node: TreeNode) -> tuple[tuple[TreeNode, ...], int | None]:
        cached = self._expansions.get(node)
        if cached is not None:
            return cached
        if len(self._expansions) >= self.node_budget:
            raise ResourceLimitError(
                f"more than {self.node_budget} distinct tree nodes; "
                f"raise the budget (env {_NODE_BUDGET_ENV}) to continue"
            )
        want = self._interior_total
        children = []
        violation = None
        for m in range(self.rule.d):
            label = edge_label(node, self.rule, m)
            if label.total() != want and violation is None:
                violation = m
            children.append(child(label, NodeClass.INTERIOR))
        result = self._expansions[node] = (tuple(children), violation)
        return result

    def _advance(self) -> None:
        """Compute the next frontier from the last one."""
        level = len(self.frontiers) - 1
        nxt: set[TreeNode] = set()
        violation = None
        for node in sorted(self.frontiers[-1], key=lambda nd: nd.bits):
            children, bad = self._expand(node)
            if bad is not None and violation is None:
                violation = _witness(self.rule, level, node, bad, self._interior_total)
                if self.fail_fast:
                    break
            nxt.update(children)
        self._violations.append(violation)
        if violation is not None and self.fail_fast:
            self._aborted_at = level
            return
        frontier = frozenset(nxt)
        self.frontiers.append(frontier)
        seen_at = self._frontier_index.get(frontier)
        if seen_at is not None:
            self.preperiod = seen_at
            self.period = len(self.frontiers) - 1 - seen_at
        else:
            self._frontier_index[frontier] = len(self.frontiers) - 1

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
        while level >= len(self.frontiers) and not self.closed:
            if self._aborted_at is not None:
                raise RuntimeError(
                    f"frontier {level} unavailable: expansion stopped at the "
                    f"level-{self._aborted_at} violation"
                )
            self._advance()
        if level < len(self.frontiers):
            return level
        q, p = self.preperiod, self.period
        return q + (level - q) % p

    def frontier_at(self, level: int) -> frozenset[TreeNode]:
        return self.frontiers[self._level_index(level)]

    def _tail_violation(self, level: int) -> tuple | None:
        """The ring-closing check of frontier ``level`` taken as level n-3."""
        key = self._level_index(level)
        if key not in self._tails:
            self._tails[key] = _check_tail(self.rule, self.frontiers[key])
        return self._tails[key]


def frontier_closure(rule: Rule, node_budget: int | None = None) -> FrontierClosure:
    """Compute frontiers until the sequence repeats, regardless of violations."""
    if not is_balanced(rule):
        raise ValueError("frontier closure is defined for balanced rules")
    closure = FrontierClosure(rule, node_budget=node_budget, fail_fast=False)
    while not closure.closed:
        closure._advance()
    return closure


def _check_tail(rule: Rule, frontier: Iterable[TreeNode]) -> tuple | None:
    """Check the three final edge levels from the level-(n-3) frontier,
    applying the two ring-closing filters. Depends only on the frontier.

    Depth first, each distinct child once per offset; the first failure is
    returned as (offset from level n-3, edge state, expected total, node).
    """
    d = rule.d
    wants = tuple(expected_edge_total(offset, 3, d) for offset in range(3))
    seen: tuple[set[TreeNode], set[TreeNode]] = (set(), set())

    def walk(nodes: Iterable[TreeNode], offset: int) -> tuple | None:
        want, node_class = wants[offset], _TAIL_CLASSES[offset]
        for node in nodes:
            for m in range(d):
                label = edge_label(node, rule, m)
                if label.total() != want:
                    return offset, m, want, node
                if node_class is None:
                    continue
                nxt = child(label, node_class)
                if nxt in seen[offset]:
                    continue
                seen[offset].add(nxt)
                found = walk((nxt,), offset + 1)
                if found is not None:
                    return found
        return None

    return walk(sorted(frontier, key=lambda nd: nd.bits), 0)


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
            offset, m, expected, node = tail
            w = _witness(rule, n - 3 + offset, node, m, expected)
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
