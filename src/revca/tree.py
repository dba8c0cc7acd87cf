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

``successors(d, packed, masks)`` is the one child kernel: ``child``, the
ring-closing walk and ``expand_lanes`` derive children through it. It
works on one node or on many packed side by side, each in a lane of
``lane_bytes(d)`` bytes; no bit leaves its window field, so lanes never
mix. Only this module packs: ``expand_lanes`` calls the kernel on chunks
of ``_CHUNK_BYTES``. The decider interns each node once by its lane, the
fixed-width big-endian bytes of ``bits``; bytes order equals ``bits``
order, so sorting either picks the same witness. This module makes every
edge-label check too (``first_violator``, ``ring_closing_violation``);
the decider only sequences node ids and frontiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import as_integer
from .rules import Rule, _equi_sets, _sibl_sets, validate_cell_count, validate_state_count


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


# Packed nodes per kernel call, in bytes. A call holds a few ints of this
# size at once, so the cap bounds what it adds to the frontiers' memory.
_CHUNK_BYTES = 32 * 1024


def _mask(rmts: Iterable[int]) -> int:
    return sum(1 << r for r in rmts)


def lane_bytes(d: int) -> int:
    """Bytes per node when nodes are packed side by side."""
    return -(-d ** 5 // 8)


def repeat_lanes(d: int, value: int, lanes: int) -> int:
    """``value``, a one-node int, repeated in each of ``lanes`` lanes."""
    width = lane_bytes(d)
    return int.from_bytes(value.to_bytes(width, "big") * lanes, "big")


class _Layout(NamedTuple):
    lanes: int                           # nodes per kernel call
    replicate: int                       # bit 0 of every window field of one node
    fold_shifts: tuple[int, ...]         # t * d**2 for t in 1..d-1
    classes: int                         # low d**2 bits of every field, all lanes
    spread: tuple[tuple[int, int], ...]  # (bits to move in all lanes, shift) per step
    second_last: int                     # packed SECOND_LAST filter
    last: int                            # packed LAST filter


@lru_cache(maxsize=None)
def _layout(d: int) -> _Layout:
    dd, width = d * d, d ** 3
    lanes = _CHUNK_BYTES // lane_bytes(d)
    replicate = sum(1 << (w * width) for w in range(dd))
    # Class c sits at bit c of its field and must reach bit d*c. Move it
    # by (d-1) * 2**k for each binary digit k of c, highest digit first;
    # positions stay increasing in c, so no two classes ever collide.
    spread, pos = [], list(range(dd))
    for k in reversed(range((dd - 1).bit_length())):
        move = sum(1 << pos[c] for c in range(dd) if c >> k & 1)
        spread.append((repeat_lanes(d, move * replicate, lanes), (d - 1) << k))
        pos = [p + ((d - 1) << k if c >> k & 1 else 0) for c, p in enumerate(pos)]
    residue = [_mask(range(s, width, d)) for s in range(d)]
    return _Layout(
        lanes=lanes,
        replicate=replicate,
        fold_shifts=tuple(t * dd for t in range(1, d)),
        classes=repeat_lanes(d, ((1 << dd) - 1) * replicate, lanes),
        spread=tuple(spread),
        second_last=TreeNode.from_windows(d, (residue[w // d] for w in range(dd))).bits,
        last=TreeNode.from_windows(d, map(_mask, _equi_sets(d))).bits,
    )


def root(d: int) -> TreeNode:
    """Window set w starts with the sibling set of w: first two cells fixed,
    third free."""
    d = validate_state_count(d)
    return TreeNode.from_windows(d, map(_mask, _sibl_sets(d)))


def label_masks(rule: Rule) -> tuple[int, ...]:
    """Edge masks over a full chunk of lanes: ``packed & masks[m]`` holds
    the m-edge label of each node in ``packed``, one node or a chunk."""
    layout = _layout(rule.d)
    return tuple(repeat_lanes(rule.d, mask * layout.replicate, layout.lanes) for mask in rule.value_masks)


def edge_label(node: TreeNode, rule: Rule, m: int) -> TreeNode:
    """Restrict every window set to the RMTs that output m."""
    d = node.d
    if rule.d != d:
        raise ValueError(f"node has {d} states, rule has {rule.d}")
    m = as_integer(m, "edge state", 0, d - 1)
    return TreeNode(d, node.bits & rule.value_masks[m] * _layout(d).replicate)


def successors(d: int, packed: int, masks: Iterable[int]) -> list[int]:
    """The interior child of the label ``packed & mask``, for each mask.

    ``packed`` holds one node or a chunk of them, one per lane, and each
    mask covers at least as many lanes (``label_masks`` covers a chunk) or
    is -1; the children of a lane's node sit in the same lane of every
    output. The constants cover a chunk too: an AND of positive ints is as
    wide as the narrower one, so they serve fewer lanes. Successors
    depend on r only through r mod d**2: fold each window set to its d**2
    classes, move class c to bit d*c and fill it to the d bits of sibling
    set c. A fold shift carries bits into the field below, but only above
    its d**2 class bits, which the ``classes`` mask clears; spread and
    fill stay inside a field. So no bit leaves its window field, and
    lanes never mix.
    """
    layout = _layout(d)
    fold_shifts, classes, spread = layout.fold_shifts, layout.classes, layout.spread
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


def expand_lanes(d: int, nodes: Sequence[bytes], masks: Sequence[int]) -> Iterator[list[tuple[bytes, ...]]]:
    """The children of ``nodes``, which are lanes, under each mask: per
    ``successors`` call on up to ``_CHUNK_BYTES`` of them, one tuple of
    child lanes per mask, in node order."""
    width, lanes = lane_bytes(d), _layout(d).lanes
    for start in range(0, len(nodes), lanes):
        part = nodes[start : start + lanes]
        size = len(part) * width
        unpack = Struct(f"{width}s" * len(part)).unpack
        packed = int.from_bytes(b"".join(part), "big")
        yield [unpack(c.to_bytes(size, "big")) for c in successors(d, packed, masks)]


def first_violator(nodes: Sequence[bytes], masks: Sequence[int]) -> tuple[int, int, int, int, int] | None:
    """The least lane of ``nodes`` in bytes order whose label under one of
    ``masks`` (``label_masks``) is not of d**2 RMTs, the interior total,
    as (lanes up to and including it, edge state, expected total, actual
    total, its bits); None if all pass."""
    want = expected_edge_total(0, 3, len(masks))
    for rank, node in enumerate(sorted(nodes), 1):
        bits = int.from_bytes(node, "big")
        for m, mask in enumerate(masks):
            if (bits & mask).bit_count() != want:
                return rank, m, want, (bits & mask).bit_count(), bits
    return None


def ring_closing_violation(d: int, masks: Sequence[int], frontier: Iterable[bytes]) -> tuple | None:
    """The first failed label of the three final edge levels, walking
    ``frontier``, the lanes of the level-(n-3) frontier, through the two
    ring-closing filters depth first, each distinct child once per offset:
    (offset from level n-3, edge state, expected total, actual total, node
    bits), or None."""
    layout = _layout(d)
    wants = tuple(expected_edge_total(offset, 3, d) for offset in range(3))
    filters = (layout.second_last, layout.last)
    seen: tuple[set[int], set[int]] = (set(), set())

    def walk(nodes: Iterable[int], offset: int) -> tuple | None:
        want = wants[offset]
        for bits in nodes:
            children = successors(d, bits, masks) if offset < 2 else None
            for m, mask in enumerate(masks):
                if (bits & mask).bit_count() != want:
                    return offset, m, want, (bits & mask).bit_count(), bits
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


def child(label: TreeNode, node_class: NodeClass) -> TreeNode:
    """Materialize the node an edge leads to, applying the class filter."""
    (f,) = successors(label.d, label.bits, (-1,))
    if node_class is NodeClass.SECOND_LAST:
        f &= _layout(label.d).second_last
    elif node_class is NodeClass.LAST:
        f &= _layout(label.d).last
    elif not isinstance(node_class, NodeClass):
        raise ValueError(f"node class must be a NodeClass, got {node_class!r}")
    return TreeNode(label.d, f)


def node_is_balanced(node: TreeNode, rule: Rule) -> bool:
    """True iff each next-state value labels the same number of the node's
    RMTs (counted with multiplicity across window sets)."""
    return len({edge_label(node, rule, m).total() for m in range(node.d)}) == 1


def expected_edge_total(level: int, n: int, d: int) -> int:
    """The RMT count a level-``level`` edge label must carry in a complete
    tree: d**2 up to level n-3, d at level n-2, 1 at level n-1."""
    n, d = validate_cell_count(n), validate_state_count(d)
    level = as_integer(level, "edge level", 0, n - 1)
    if level <= n - 3:
        return d * d
    if level == n - 2:
        return d
    return 1

