"""The matched-output pair graph on ints: its encoding, components and cycles.

The pair graph's vertices are ordered pairs of two-cell windows, and each
edge takes one de Bruijn edge in each coordinate, the two emitting the same
output symbol. A path in it is two preimage words with one image. Window
(a, b) is w = a*d + b and pair (w1, w2) is v = w1*d**2 + w2, so int order is
the pairs' lexicographic order and v is on the diagonal (w1 == w2) iff
v % (d**2 + 1) == 0. The edges leaving window w are the RMTs r in Sibl(w),
each ending at window r mod d**2, so ``rule.table`` alone gives the
adjacency.

Only this module knows that encoding. It imports neither the decider,
which reads surjectivity off the graph, nor ``infinite``, which reads a cycle.

A CA on the lattice is surjective iff it is pre-injective (Moore 1962;
Myhill 1963): no two configurations that differ in finitely many cells
share an image. Two such configurations trace a path that leaves the
diagonal and comes back to it, a *diamond*. Conversely, a diamond extended
both ways along the diagonal, a copy of the de Bruijn graph, is two such
configurations.
"""

from __future__ import annotations

from typing import Sequence

from .rules import Rule

Pair = tuple[tuple[int, int], tuple[int, int]]  # two windows


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


def _pair(v: int, d: int) -> Pair:
    w1, w2 = divmod(v, d * d)
    return divmod(w1, d), divmod(w2, d)


def pair_graph(rule: Rule) -> dict[Pair, tuple[Pair, ...]]:
    """The matched-output pair graph, decoded: keys run over (w1, w2) in
    lexicographic order, out-edges over the two edges' third cells (c1, c2)."""
    pairs = [_pair(v, rule.d) for v in range(rule.d ** 4)]
    adj = pair_adjacency(rule)
    return {pairs[v]: tuple(pairs[u] for u in outs) for v, outs in enumerate(adj)}


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


def _sccs(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components in the order Tarjan's algorithm emits
    them from vertex 0 up (reverse topological), by two traversals.
    Pass 1 is Tarjan's depth-first search and records finishing order. A
    component's root, its first-discovered vertex, finishes last in it, and
    Tarjan emits a component when its root finishes. Pass 2 meets the roots
    in decreasing finishing order and collects each component along
    reversed edges, so its list reversed is Tarjan's."""
    finished: list[int] = []
    seen = [False] * len(adj)
    work = [(-1, iter(range(len(adj))))]  # a virtual root above every vertex
    while work:
        v, it = work[-1]
        for u in it:
            if not seen[u]:
                seen[u] = True
                work.append((u, iter(adj[u])))
                break
        else:
            work.pop()
            finished.append(v)
    finished.pop()  # the virtual root
    reverse: list[list[int]] = [[] for _ in adj]
    for v, outs in enumerate(adj):
        for u in outs:
            reverse[u].append(v)
    sccs: list[list[int]] = []
    assigned = [False] * len(adj)
    for root in reversed(finished):
        if assigned[root]:
            continue
        assigned[root] = True
        comp = [root]
        for v in comp:  # grows while it is walked
            for u in reverse[v]:
                if not assigned[u]:
                    assigned[u] = True
                    comp.append(u)
        sccs.append(comp)
    return sccs[::-1]


def _cycle_through(v: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Shortest cycle through v (v on a cycle) as [successor of v, ..., v]:
    each vertex steps to the next, v back to the first. A search that leaves
    v's strongly connected component never returns, so the cycle stays in it."""
    parent = [-1] * len(adj)
    frontier = [v]
    while frontier and parent[v] < 0:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if parent[w] < 0:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    path = [v]
    while parent[path[-1]] != v:
        path.append(parent[path[-1]])
    return path[::-1]


def collision_cycle(rule: Rule) -> tuple[tuple[Pair, ...], tuple[int, ...], tuple[int, ...]] | None:
    """A pair cycle through an off-diagonal vertex as (pairs, left RMTs,
    right RMTs), or None: the shortest cycle through the least off-diagonal
    vertex of the first such component in Tarjan's order. Pair v stepping
    to u reads, in each coordinate, the RMT (v's window)*d + (u's last cell)."""
    d = rule.d
    dd, diagonal = d * d, d * d + 1
    adj = pair_adjacency(rule)
    for comp in _sccs(adj):
        off_diagonal = [v for v in comp if v % diagonal]
        if off_diagonal and (len(comp) > 1 or comp[0] in adj[comp[0]]):  # on a cycle
            cycle = _cycle_through(min(off_diagonal), adj)
            steps = list(zip(cycle, [*cycle[1:], cycle[0]]))
            left = tuple(v // dd * d + u // dd % d for v, u in steps)
            right = tuple(v % dd * d + u % d for v, u in steps)
            return tuple(_pair(v, d) for v in cycle), left, right
    return None
