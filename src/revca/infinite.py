"""Injectivity of the global map on the unbounded lattice.

Two distinct bi-infinite configurations with equal images trace a
bi-infinite path through the *matched-output pair graph*: vertices are
ordered pairs of de Bruijn vertices (two-cell windows), with an edge
whenever both coordinates can advance one cell while emitting the same
output symbol. Between a fixed ordered pair of de Bruijn vertices there
is at most one edge, so a pair cycle's two coordinate label paths differ
exactly when the cycle visits an off-diagonal pair. Divergent histories
that reconverge (equal tails) also close into such a cycle because the de
Bruijn graph is strongly connected. Hence:

    the map is non-injective  iff  some off-diagonal pair lies on a cycle,

and looping that cycle yields two distinct spatially periodic
configurations with the same image -- the returned witness.

Theorem: a rule injective on the lattice is reversible on the n-cell ring
for every n >= 3. Two distinct n-rings with one image, each repeated with
period n, are two distinct bi-infinite configurations with one image,
because the update of a periodic configuration repeats the ring update.
The converse fails: a rule can be reversible at some n, even at
infinitely many, without being injective on the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .decider import Verdict, decide_range
from .rules import Rule, format_rule

Window = tuple[int, int]
Pair = tuple[Window, Window]


def _window(w: int, d: int) -> Window:
    return (w // d, w % d)


def pair_graph(rule: Rule) -> dict[Pair, tuple[Pair, ...]]:
    """Adjacency of the matched-output pair graph over ordered window pairs."""
    d = rule.d
    dd = d * d
    table = rule.table
    adj: dict[Pair, tuple[Pair, ...]] = {}
    for w1 in range(dd):
        for w2 in range(dd):
            outs = []
            for c1 in range(d):
                v = table[w1 * d + c1]
                for c2 in range(d):
                    if table[w2 * d + c2] == v:
                        outs.append(
                            (_window((w1 * d + c1) % dd, d), _window((w2 * d + c2) % dd, d))
                        )
            adj[(_window(w1, d), _window(w2, d))] = tuple(outs)
    return adj


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


def _tarjan_sccs(vertices: Sequence[Pair], adj: Mapping[Pair, tuple[Pair, ...]]) -> list[list[Pair]]:
    """Iterative Tarjan; components in reverse topological order."""
    index_of: dict[Pair, int] = {}
    low: dict[Pair, int] = {}
    on_stack: set[Pair] = set()
    stack: list[Pair] = []
    sccs: list[list[Pair]] = []
    counter = 0
    for start in vertices:
        if start in index_of:
            continue
        work = [(start, iter(adj[start]))]
        index_of[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index_of:
                    index_of[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(adj[u])))
                    advanced = True
                    break
                if u in on_stack:
                    low[v] = min(low[v], index_of[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack.remove(u)
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(comp)
    return sccs


def _cycle_through(v: Pair, adj: Mapping[Pair, tuple[Pair, ...]]) -> list[Pair]:
    """Shortest cycle v -> ... -> v, for v on a cycle. A search that leaves
    v's strongly connected component never returns, so the cycle stays in it."""
    parent: dict[Pair, Pair] = {}
    frontier = list(adj[v])
    for u in frontier:
        parent.setdefault(u, v)
    while frontier:
        if v in parent:
            break
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    path = [v]
    u = parent[v]
    while u != v:
        path.append(u)
        u = parent[u]
    path.reverse()
    return path  # cycle as [v, ..., last], last -> v closes it


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
    vertices = sorted(adj)
    for comp in _tarjan_sccs(vertices, adj):
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
    counterexamples: tuple[RuleExperiment, ...] = field(init=False)
    finite_only: tuple[RuleExperiment, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "counterexamples",
            tuple(r for r in self.rows if r.injective and not all(r.verdicts.values())),
        )
        object.__setattr__(
            self,
            "finite_only",
            tuple(r for r in self.rows if not r.injective and any(r.verdicts.values())),
        )

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
