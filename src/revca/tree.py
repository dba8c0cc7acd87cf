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

A node and an edge label are the same object, ``TreeNode(d, bits)``:
``bits`` packs the d**2 window sets into one d**5-bit int, window set w
being the d**3-bit field at ``(d**2 - 1 - w) * d**3``. Window 0 is the
most significant field, so ordering nodes by ``bits`` is the
lexicographic order of their ``by_window`` tuples.

``successors`` is the one child kernel: ``child``, the ring-closing walk
and the decider's frontier advance all derive children through it. It
works on one node or on many packed side by side, each in a lane of
``lane_bytes(d)`` bytes; no bit leaves its window field, so lanes never
mix. The decider holds a node as its lane, the fixed-width big-endian
bytes of ``bits``: bytes hash once, and bytes order equals ``bits``
order, so sorting either picks the same witness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .rules import Rule, _equi_sets, _sibl_sets, validate_state_count


class NodeClass(enum.Enum):
    """Which derivation filter applies when a node is materialized."""

    INTERIOR = "interior"
    SECOND_LAST = "second_last"  # level n-2: last window symbol pinned
    LAST = "last"                # level n-1: last two window symbols pinned
    LEAF = "leaf"                # level n: plain sibling expansion


@dataclass(frozen=True, slots=True)
class TreeNode:
    """d**2 RMT sets, one per starting window, packed into ``bits``.

    Built unchecked on the hot path; ``from_windows`` validates its input.
    """

    d: int
    bits: int

    @classmethod
    def from_windows(cls, d: int, masks: Iterable[int]) -> TreeNode:
        """Pack ``masks[w]``, the RMT bitmask of window set w."""
        masks = tuple(masks)
        width = d ** 3
        if len(masks) != d * d:
            raise ValueError(f"need {d * d} window sets")
        bits = 0
        for m in masks:
            if m < 0 or m >> width:
                raise ValueError(f"window set {m:#x} has bits outside [0, {width})")
            bits = bits << width | m
        return cls(d, bits)

    @property
    def by_window(self) -> tuple[int, ...]:
        width = self.d ** 3
        full = (1 << width) - 1
        return tuple(self.bits >> (i * width) & full for i in reversed(range(self.d * self.d)))

    def window_set(self, w: int) -> tuple[int, ...]:
        """The RMTs of window set w, ascending."""
        mask = self.by_window[w]
        return tuple(r for r in range(self.d ** 3) if mask >> r & 1)

    def total(self) -> int:
        """RMT count summed over window sets (with multiplicity)."""
        return self.bits.bit_count()

    def union_mask(self) -> int:
        u = 0
        for m in self.by_window:
            u |= m
        return u

    def is_empty(self) -> bool:
        return self.bits == 0


def _mask(rmts: Iterable[int]) -> int:
    return sum(1 << r for r in rmts)


class _Layout(NamedTuple):
    replicate: int                       # bit 0 of every window field
    fold_shifts: tuple[int, ...]         # t * d**2 for t in 1..d-1
    classes: int                         # low d**2 bits of every field
    spread: tuple[tuple[int, int], ...]  # (bits to move, shift) per step
    second_last: int                     # packed SECOND_LAST filter
    last: int                            # packed LAST filter


@lru_cache(maxsize=None)
def _layout(d: int) -> _Layout:
    dd, width = d * d, d ** 3
    replicate = sum(1 << (w * width) for w in range(dd))
    # Class c sits at bit c of its field and must reach bit d*c. Move it
    # by (d-1) * 2**k for each binary digit k of c, highest digit first;
    # positions stay increasing in c, so no two classes ever collide.
    spread, pos = [], list(range(dd))
    for k in reversed(range((dd - 1).bit_length())):
        move = sum(1 << pos[c] for c in range(dd) if c >> k & 1)
        spread.append((move * replicate, (d - 1) << k))
        pos = [p + ((d - 1) << k if c >> k & 1 else 0) for c, p in enumerate(pos)]
    residue = [_mask(range(s, width, d)) for s in range(d)]
    return _Layout(
        replicate=replicate,
        fold_shifts=tuple(t * dd for t in range(1, d)),
        classes=((1 << dd) - 1) * replicate,
        spread=tuple(spread),
        second_last=TreeNode.from_windows(d, (residue[w // d] for w in range(dd))).bits,
        last=TreeNode.from_windows(d, map(_mask, _equi_sets(d))).bits,
    )


def root(d: int) -> TreeNode:
    """Window set w starts with the sibling set of w: first two cells fixed,
    third free."""
    validate_state_count(d)
    return TreeNode.from_windows(d, map(_mask, _sibl_sets(d)))


def label_masks(rule: Rule) -> tuple[int, ...]:
    """Packed edge masks: ``bits & label_masks(rule)[m]`` is the m-edge
    label of a node of ``rule.d`` states."""
    replicate = _layout(rule.d).replicate
    return tuple(mask * replicate for mask in rule.value_masks)


def edge_label(node: TreeNode, rule: Rule, m: int) -> TreeNode:
    """Restrict every window set to the RMTs that output m."""
    d = node.d
    if rule.d != d:
        raise ValueError(f"node has {d} states, rule has {rule.d}")
    if not 0 <= m < d:
        raise ValueError(f"edge state {m} out of range [0, {d})")
    return TreeNode(d, node.bits & rule.value_masks[m] * _layout(d).replicate)


def lane_bytes(d: int) -> int:
    """Bytes per node when nodes are packed side by side."""
    return -(-d ** 5 // 8)


def repeat_lanes(d: int, value: int, lanes: int) -> int:
    """``value``, a one-node int, repeated in each of ``lanes`` lanes."""
    width = lane_bytes(d)
    return int.from_bytes(value.to_bytes(width, "big") * lanes, "big")


@lru_cache(maxsize=None)
def _lane_constants(d: int, lanes: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The kernel's ``classes`` and ``spread`` masks repeated over ``lanes``
    lanes. They are only ANDed in, and an AND of positive ints is as wide
    as the narrower one, so constants for more lanes serve fewer:
    ``successors`` rounds ``lanes`` up to a power of two to keep this
    cache small."""
    layout = _layout(d)
    return (
        repeat_lanes(d, layout.classes, lanes),
        tuple((repeat_lanes(d, move, lanes), s) for move, s in layout.spread),
    )


def successors(d: int, packed: int, masks: Iterable[int], lanes: int = 1) -> list[int]:
    """The interior child of the label ``packed & mask``, for each mask.

    ``packed`` holds ``lanes`` nodes, one per lane, and each mask covers as
    many lanes (see ``repeat_lanes``) or is -1; the children of a lane's
    node sit in the same lane of every output. Successors depend on r only
    through r mod d**2: fold each window set to its d**2 classes, move
    class c to bit d*c and fill it to the d bits of sibling set c. A fold
    shift carries bits into the field below, but only above its d**2
    class bits, which the ``classes`` mask clears; spread and fill stay
    inside a field. So no bit leaves its window field, and lanes never
    mix.
    """
    layout = _layout(d)
    fold_shifts, classes, spread = layout.fold_shifts, layout.classes, layout.spread
    if lanes > 1:
        classes, spread = _lane_constants(d, 1 << (lanes - 1).bit_length())
    out = []
    for mask in masks:
        label = packed & mask
        f = label
        for s in fold_shifts:
            f |= label >> s
        f &= classes
        for move, s in spread:
            t = f & move
            f = f ^ t | t << s
        out.append((f << d) - f)
    return out


def class_filter(d: int, node_class: NodeClass) -> int:
    """The packed mask ``child`` ANDs into a node of ``node_class``."""
    if node_class is NodeClass.SECOND_LAST:
        return _layout(d).second_last
    if node_class is NodeClass.LAST:
        return _layout(d).last
    return -1


def child(label: TreeNode, node_class: NodeClass) -> TreeNode:
    """Materialize the node an edge leads to, applying the class filter."""
    (f,) = successors(label.d, label.bits, (-1,))
    return TreeNode(label.d, f & class_filter(label.d, node_class))


def node_is_balanced(node: TreeNode, rule: Rule) -> bool:
    """True iff each next-state value labels the same number of the node's
    RMTs (counted with multiplicity across window sets)."""
    return len({edge_label(node, rule, m).total() for m in range(node.d)}) == 1


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


def format_node(node: TreeNode) -> str:
    """Debug form: one bracketed decimal RMT list per window set."""
    parts = []
    for w in range(node.d * node.d):
        parts.append("[" + ",".join(map(str, node.window_set(w))) + "]")
    return "".join(parts)
