"""Injectivity of the global map on the unbounded lattice.

Two distinct bi-infinite configurations with equal images trace a
bi-infinite path through the *matched-output pair graph*: its vertices
are ordered pairs of two-cell windows, and each edge takes one de Bruijn
edge in each coordinate, the two emitting the same output symbol. With
at most one edge between two vertices, a pair cycle's two coordinate
label paths differ exactly when it visits an off-diagonal pair.
Divergent histories that reconverge (equal tails) also close into such
a cycle because the de Bruijn graph is strongly connected. Hence:

    the map is non-injective  iff  some off-diagonal pair lies on a cycle,

and looping that cycle yields two distinct spatially periodic
configurations with the same image -- the returned witness.

The graph is built and searched on ints (``pairs.pair_adjacency``).
Pairs are decoded only for the witness and for ``pair_graph``, a decoded
view.

Theorem: a rule injective on the lattice is reversible on the n-cell ring
for every n >= 3. Two distinct n-rings with one image, each repeated with
period n, are two distinct bi-infinite configurations with one image,
because the update of a periodic configuration repeats the ring update.
The converse fails: a rule can be reversible at some n, even at
infinitely many, without being injective on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .decider import decide_range
from .pairs import pair_adjacency
from .rules import Rule, format_rule, validate_cell_range, validate_state_count

Pair = tuple[tuple[int, int], tuple[int, int]]  # two windows


def _pair(v: int, d: int) -> Pair:
    w1, w2 = divmod(v, d * d)
    return divmod(w1, d), divmod(w2, d)


def pair_graph(rule: Rule) -> dict[Pair, tuple[Pair, ...]]:
    """The matched-output pair graph, decoded: keys run over (w1, w2) in
    lexicographic order, out-edges over the two edges' third cells (c1, c2)."""
    pairs = [_pair(v, rule.d) for v in range(rule.d ** 4)]
    adj = pair_adjacency(rule)
    return {pairs[v]: tuple(pairs[u] for u in outs) for v, outs in enumerate(adj)}


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


def _decorate(rule: Rule, cycle: Sequence[int]) -> InjectivityWitness:
    """Pair v stepping to u reads, in each coordinate, the RMT (v's window)*d
    + (the last cell of u's window)."""
    d = rule.d
    dd = d * d
    steps = list(zip(cycle, [*cycle[1:], cycle[0]]))
    left = tuple(v // dd * d + u // dd % d for v, u in steps)
    right = tuple(v % dd * d + u % d for v, u in steps)
    pairs = tuple(_pair(v, d) for v in cycle)
    return InjectivityWitness(pairs, left, right, tuple(rule.table[r] for r in left))


def infinite_injective(rule: Rule) -> InjectivityResult:
    """Test injectivity of the rule's global map on the unbounded lattice."""
    dd = rule.d * rule.d
    adj = pair_adjacency(rule)
    for comp in _sccs(adj):
        off_diagonal = [v for v in comp if v // dd != v % dd]
        if off_diagonal and (len(comp) > 1 or comp[0] in adj[comp[0]]):  # on a cycle
            cycle = _cycle_through(min(off_diagonal), adj)
            return InjectivityResult(rule, False, _decorate(rule, cycle))
    return InjectivityResult(rule, True, None)


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
