"""Reachability-tree node algebra.

The reachability tree of an n-cell ring enumerates, level by level, which
output configurations the global map can produce. A node at level i
tracks the RMTs (three-cell windows starting at ring position i) that can
occur in a preimage consistent with the output emitted so far, *sorted by
the preimage's first two cells*: a node holds d**2 sets, one per initial
two-cell window w, so the ring's wrap-around can be enforced when the
last two positions are reached.

Derivation rules, given a node N at level i:

* the m-edge label keeps, in every window set, the RMTs whose next state
  is m (the d labels partition each set of N);
* an interior child replaces each RMT r by its d possible successors,
  the sibling set of index ``r mod d**2`` (overlap the last two symbols,
  free choice of the new cell);
* a child at level n-2 additionally keeps, in window set w, only RMTs
  whose last symbol equals the first cell of w (``r mod d == w // d``),
  because position n-2's window ends at ring position 0;
* a child at level n-1 keeps in window set w only RMTs whose last two
  symbols encode w itself (``r mod d**2 == w``), closing the ring.

All cardinalities used by the completeness conditions count RMTs *with
multiplicity across window sets* (the same RMT may be a candidate for
several starting windows at once).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .rmtset import RmtSet, iter_bits
from .rules import Rule, _equi_masks, _sibl_masks, validate_state_count


class NodeClass(enum.Enum):
    """Which derivation filter applies when a node is materialized."""

    INTERIOR = "interior"
    SECOND_LAST = "second_last"  # level n-2: last window symbol pinned
    LAST = "last"                # level n-1: last two window symbols pinned
    LEAF = "leaf"                # level n: plain sibling expansion


@lru_cache(maxsize=None)
def _second_last_filters(d: int) -> tuple[int, ...]:
    """filters[w] = mask of RMTs with r mod d == w // d."""
    residue_masks = [0] * d
    for r in range(d ** 3):
        residue_masks[r % d] |= 1 << r
    return tuple(residue_masks[w // d] for w in range(d * d))


@dataclass(frozen=True)
class _WindowSets:
    """d**2 RMT bitmasks indexed by starting window."""

    d: int
    by_window: tuple[int, ...]

    def window_set(self, w: int) -> RmtSet:
        return RmtSet(self.by_window[w], self.d ** 3)

    def total(self) -> int:
        """RMT count summed over window sets (with multiplicity)."""
        return sum(m.bit_count() for m in self.by_window)

    def union_mask(self) -> int:
        u = 0
        for m in self.by_window:
            u |= m
        return u

    def is_empty(self) -> bool:
        return all(m == 0 for m in self.by_window)


@dataclass(frozen=True)
class TreeNode(_WindowSets):
    """A node value: d**2 RMT bitmasks indexed by starting window."""

    def __post_init__(self):
        if len(self.by_window) != self.d * self.d:
            raise ValueError(f"need {self.d * self.d} window sets")

    def rmt_sets(self) -> tuple[RmtSet, ...]:
        return tuple(self.window_set(w) for w in range(self.d * self.d))


@dataclass(frozen=True)
class EdgeLabel(_WindowSets):
    """The part of a node that exits through one edge state.

    Built on the hot path by ``edge_label``, so it is not validated.
    """

    edge_state: int


def root(d: int) -> TreeNode:
    """Window set w starts with the sibling set of w: first two cells fixed,
    third free."""
    validate_state_count(d)
    return TreeNode(d, _sibl_masks(d))


def edge_label(node: TreeNode, rule: Rule, m: int) -> EdgeLabel:
    """Restrict every window set to the RMTs that output m."""
    if not 0 <= m < node.d:
        raise ValueError(f"edge state {m} out of range [0, {node.d})")
    vm = rule.value_masks[m]
    return EdgeLabel(node.d, tuple(g & vm for g in node.by_window), m)


def _expand_mask(mask: int, d: int, sibl: tuple[int, ...]) -> int:
    """Union of successor sibling sets over the RMTs in ``mask``.

    Successors depend on r only through r mod d**2, so fold the mask into
    one d**2-bit class mask first.
    """
    dd = d * d
    classes = mask
    for t in range(1, d):
        classes |= mask >> (t * dd)
    classes &= (1 << dd) - 1
    out = 0
    for cls in iter_bits(classes):
        out |= sibl[cls]
    return out


def child(label: EdgeLabel, node_class: NodeClass) -> TreeNode:
    """Materialize the node an edge leads to, applying the class filter."""
    d = label.d
    sibl = _sibl_masks(d)
    expanded = [_expand_mask(m, d, sibl) for m in label.by_window]
    if node_class is NodeClass.SECOND_LAST:
        filters = _second_last_filters(d)
        expanded = [m & filters[w] for w, m in enumerate(expanded)]
    elif node_class is NodeClass.LAST:
        equi = _equi_masks(d)
        expanded = [m & equi[w] for w, m in enumerate(expanded)]
    return TreeNode(d, tuple(expanded))


def node_is_balanced(node: TreeNode, rule: Rule) -> bool:
    """True iff each next-state value labels the same number of the node's
    RMTs (counted with multiplicity across window sets)."""
    counts = []
    for vm in rule.value_masks:
        counts.append(sum((g & vm).bit_count() for g in node.by_window))
    return len(set(counts)) == 1


def expected_edge_total(level: int, n: int, d: int) -> int:
    """The RMT count a level-``level`` edge label must carry in a complete
    tree: d**2 up to level n-3, d at level n-2, 1 at level n-1."""
    if n < 3:
        raise ValueError("rings have at least 3 cells")
    if not 0 <= level <= n - 1:
        raise ValueError(f"edge level {level} out of range [0, {n - 1}]")
    if level <= n - 3:
        return d * d
    if level == n - 2:
        return d
    return 1


@dataclass(frozen=True)
class CardinalityViolation:
    level: int
    edge_state: int
    expected: int
    actual: int


def check_edge_cardinality(label: EdgeLabel, level: int, n: int) -> CardinalityViolation | None:
    """None when the label meets the completeness cardinality for its level,
    otherwise the violation details."""
    want = expected_edge_total(level, n, label.d)
    got = label.total()
    if got == want:
        return None
    return CardinalityViolation(level, label.edge_state, want, got)


def format_node(node: TreeNode) -> str:
    """Debug form: one bracketed decimal RMT list per window set."""
    parts = []
    for w in range(node.d * node.d):
        parts.append("[" + ",".join(map(str, node.window_set(w))) + "]")
    return "".join(parts)
