"""Injectivity of the global map on the unbounded lattice.

Two distinct bi-infinite configurations with equal images trace a
bi-infinite path through the *matched-output pair graph*: the product of
the de Bruijn graph (``evolution.build_debruijn``) with itself, keeping
the edge pairs that emit the same output symbol. Its vertices are ordered
pairs of two-cell windows, with at most one edge between two of them, so
a pair cycle's two coordinate label paths differ exactly when the cycle
visits an off-diagonal pair. Divergent histories that reconverge (equal
tails) also close into such a cycle because the de Bruijn graph is
strongly connected. Hence:

    the map is non-injective  iff  some off-diagonal pair lies on a cycle,

and looping that cycle yields two distinct spatially periodic
configurations with the same image -- the returned witness. The cycles
are sought per strongly connected component; two plain traversals list
the components in the order Tarjan's algorithm emits them.

Theorem: a rule injective on the lattice is reversible on the n-cell ring
for every n >= 3. Two distinct n-rings with one image, each repeated with
period n, are two distinct bi-infinite configurations with one image,
because the update of a periodic configuration repeats the ring update.
The converse fails: a rule can be reversible at some n, even at
infinitely many, without being injective on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .decider import Verdict, decide_range
from .evolution import build_debruijn
from .rules import Rule, format_rule

Window = tuple[int, int]
Pair = tuple[Window, Window]


def pair_graph(rule: Rule) -> dict[Pair, tuple[Pair, ...]]:
    """Adjacency of the matched-output pair graph: the product of
    ``build_debruijn(rule)`` with itself, keeping the edge pairs whose
    outputs agree. Keys run over (w1, w2), out-edges over (c1, c2)."""
    graph = build_debruijn(rule)
    d = rule.d
    out_edges = [graph.edges[w * d : (w + 1) * d] for w in range(d * d)]
    by_vertex = list(zip(graph.vertices, out_edges))
    return {
        (u1, u2): tuple((e1.dst, e2.dst) for e1 in out1 for e2 in out2 if e1.output == e2.output)
        for u1, out1 in by_vertex
        for u2, out2 in by_vertex
    }


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
        w = None
        if self.witness is not None:
            w = {
                "pairs": [[list(a), list(b)] for a, b in self.witness.pairs],
                "left_rmts": list(self.witness.left_rmts),
                "right_rmts": list(self.witness.right_rmts),
                "outputs": list(self.witness.outputs),
            }
        return {
            "schema": "revca/injectivity:1",
            "rule": format_rule(self.rule),
            "d": self.rule.d,
            "injective": self.injective,
            "witness": w,
        }


def _sccs(adj: Mapping[Pair, tuple[Pair, ...]]) -> list[list[Pair]]:
    """Strongly connected components in the order Tarjan's algorithm emits
    them from ``sorted(adj)`` (reverse topological), by two traversals.
    Pass 1 is Tarjan's depth-first search and records finishing order. A
    component's root, its first-discovered vertex, finishes last in it, and
    Tarjan emits a component when its root finishes. Pass 2 meets the roots
    in decreasing finishing order and collects each component along
    reversed edges, so its list reversed is Tarjan's."""
    finished: list[Pair] = []
    seen: set[Pair] = set()
    work = [(None, iter(sorted(adj)))]  # a virtual root above every vertex
    while work:
        v, it = work[-1]
        for u in it:
            if u not in seen:
                seen.add(u)
                work.append((u, iter(adj[u])))
                break
        else:
            work.pop()
            finished.append(v)
    finished.pop()  # the virtual root
    reverse: dict[Pair, list[Pair]] = {v: [] for v in adj}
    for v, outs in adj.items():
        for u in outs:
            reverse[u].append(v)
    sccs: list[list[Pair]] = []
    assigned: set[Pair] = set()
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        comp = [root]
        for v in comp:  # grows while it is walked
            for u in reverse[v]:
                if u not in assigned:
                    assigned.add(u)
                    comp.append(u)
        sccs.append(comp)
    return sccs[::-1]


def _cycle_through(v: Pair, adj: Mapping[Pair, tuple[Pair, ...]]) -> list[Pair]:
    """Shortest cycle through v (v on a cycle) as [successor of v, ..., v]:
    each pair steps to the next, v back to the first. A search that leaves
    v's strongly connected component never returns, so the cycle stays in it."""
    parent: dict[Pair, Pair] = {}
    frontier = [v]
    while frontier and v not in parent:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    path = [v]
    while parent[path[-1]] != v:
        path.append(parent[path[-1]])
    return path[::-1]


def _decorate(rule: Rule, cycle: Sequence[Pair]) -> InjectivityWitness:
    d = rule.d
    left_rmts, right_rmts, outputs = [], [], []
    for i, (u1, u2) in enumerate(cycle):
        v1, v2 = cycle[(i + 1) % len(cycle)]
        r1 = u1[0] * d * d + u1[1] * d + v1[1]
        r2 = u2[0] * d * d + u2[1] * d + v2[1]
        left_rmts.append(r1)
        right_rmts.append(r2)
        outputs.append(rule.table[r1])
    return InjectivityWitness(tuple(cycle), tuple(left_rmts), tuple(right_rmts), tuple(outputs))


def infinite_injective(rule: Rule) -> InjectivityResult:
    """Test injectivity of the rule's global map on the unbounded lattice."""
    adj = pair_graph(rule)
    for comp in _sccs(adj):
        cyclic = len(comp) > 1 or comp[0] in adj[comp[0]]
        if not cyclic:
            continue
        off_diagonal = [v for v in sorted(comp) if v[0] != v[1]]
        if not off_diagonal:
            continue
        cycle = _cycle_through(off_diagonal[0], adj)
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


def conjecture_experiment(
    d: int, rules: Iterable[Rule], n_lo: int, n_hi: int
) -> ConjectureReport:
    """Cross 'injective on the unbounded lattice' with per-n ring verdicts."""
    rows = []
    for rule in rules:
        if rule.d != d:
            raise ValueError(f"rule {format_rule(rule)} is not a {d}-state rule")
        verdicts: Mapping[int, Verdict] = decide_range(rule, n_lo, n_hi)
        rows.append(
            RuleExperiment(
                rule,
                infinite_injective(rule).injective,
                {n: v.reversible for n, v in verdicts.items()},
            )
        )
    return ConjectureReport(d, n_lo, n_hi, tuple(rows))
