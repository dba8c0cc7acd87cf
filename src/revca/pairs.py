"""The matched-output pair graph, on ints, and surjectivity on the lattice.

The pair graph's vertices are ordered pairs of two-cell windows, and each
edge takes one de Bruijn edge in each coordinate, the two emitting the same
output symbol. A path in it is two preimage words with one image. Window
(a, b) is w = a*d + b and pair (w1, w2) is v = w1*d**2 + w2, so int order is
the pairs' lexicographic order and v is on the diagonal (w1 == w2) iff
v % (d**2 + 1) == 0. The edges leaving window w are the RMTs r in Sibl(w),
each ending at window r mod d**2, so ``rule.table`` alone gives the
adjacency.

``infinite`` reads injectivity off this graph and the decider reads
surjectivity, so it is a module of its own that imports neither of them.

A CA on the lattice is surjective iff it is pre-injective (Moore 1962;
Myhill 1963): no two configurations that differ in finitely many cells
share an image. Two such configurations trace a path that leaves the
diagonal and comes back to it, a *diamond*. Conversely, a diamond extended
both ways along the diagonal, a copy of the de Bruijn graph, is two such
configurations.
"""

from __future__ import annotations

from .rules import Rule


def pair_adjacency(rule: Rule) -> list[list[int]]:
    """Out-edges of every pair vertex v = w1*d**2 + w2, in vertex order:
    (r1 % d**2)*d**2 + r2 % d**2 over r1 in Sibl(w1), r2 in Sibl(w2), r1
    outer, keeping the RMT pairs with equal next states."""
    d, table = rule.d, rule.table
    dd = d * d
    out = [[(r % dd, table[r]) for r in range(w * d, w * d + d)] for w in range(dd)]
    return [
        [x1 * dd + x2 for x1, m1 in out1 for x2, m2 in out2 if m1 == m2]
        for out1 in out
        for out2 in out
    ]


def is_surjective(rule: Rule) -> bool:
    """Whether the rule's global map on the lattice is onto: no diamond, that
    is, a search from the diagonal's off-diagonal successors through
    off-diagonal vertices never reaches the diagonal."""
    adj = pair_adjacency(rule)
    diagonal = rule.d * rule.d + 1
    todo = list({u for v in range(0, len(adj), diagonal) for u in adj[v] if u % diagonal})
    seen = set(todo)
    for v in todo:  # grows while it is walked
        for u in adj[v]:
            if not u % diagonal:
                return False
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return True
