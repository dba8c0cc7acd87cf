"""Configuration evolution and the de Bruijn graph view of a rule.

A configuration is a ring of n cells. The global map evaluates, for each
position i, the rule on the length-3 window starting at i:

    out[i] = f(c[i], c[i+1 mod n], c[i+2 mod n])

which is exactly the output sequence obtained by walking the rule's
de Bruijn graph along the overlapping two-cell windows of c. (Any other
alignment of windows to output positions differs from this one by a
rotation, so reversibility is unaffected; this alignment is the one the
reachability tree encodes.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RuleFormatError
from .rules import Rule, read_states, rmt_decompose, validate_cell_count

Configuration = tuple[int, ...]


def parse_configuration(text: str, d: int) -> Configuration:
    """Parse a digit string (or comma-separated ints) into a ring of cells."""
    text = text.strip()
    comma = "," in text
    cells = tuple(read_states([p.strip() for p in text.split(",")] if comma else text, comma))
    if len(cells) < 3:
        raise RuleFormatError("a ring needs at least 3 cells")
    for pos, s in enumerate(cells):
        if not 0 <= s < d:
            raise RuleFormatError(f"cell state {s} at position {pos} invalid for d={d}", pos)
    return cells


def format_configuration(cells: Configuration) -> str:
    return "".join(str(s) for s in cells)


def step(rule: Rule, cells: Configuration) -> Configuration:
    """One synchronous update of the ring."""
    n = validate_cell_count(len(cells))
    d = rule.d
    table = rule.table
    for s in cells:
        if not 0 <= s < d:
            raise ValueError(f"cell state {s} out of range [0, {d})")
    return tuple(
        table[cells[i] * d * d + cells[(i + 1) % n] * d + cells[(i + 2) % n]]
        for i in range(n)
    )


@dataclass(frozen=True)
class OrbitResult:
    """Trajectory c0, c1, ... truncated at the first repeat or at t_max.

    When a repeat is found, ``states[repeat_at] == states[cycle_start]``
    and the orbit is a tail of length ``cycle_start`` followed by a cycle
    of length ``repeat_at - cycle_start``.
    """

    states: tuple[Configuration, ...]
    cycle_start: int | None
    repeat_at: int | None


def orbit(rule: Rule, cells: Configuration, t_max: int) -> OrbitResult:
    """Iterate ``step`` until the trajectory repeats or t_max steps elapse."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    states = [tuple(cells)]
    seen = {states[0]: 0}
    for t in range(1, t_max + 1):
        nxt = step(rule, states[-1])
        states.append(nxt)
        if nxt in seen:
            return OrbitResult(tuple(states), seen[nxt], t)
        seen[nxt] = t
    return OrbitResult(tuple(states), None, None)


@dataclass(frozen=True)
class DeBruijnEdge:
    src: tuple[int, int]
    dst: tuple[int, int]
    rmt: int
    output: int


@dataclass(frozen=True)
class DeBruijnGraph:
    """d**2 vertices (two-cell windows) and d**3 labelled edges, one per RMT."""

    d: int
    edges: tuple[DeBruijnEdge, ...]

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        d = self.d
        return tuple((a, b) for a in range(d) for b in range(d))

    def edge_for_rmt(self, r: int) -> DeBruijnEdge:
        return self.edges[r]


def build_debruijn(rule: Rule) -> DeBruijnGraph:
    d = rule.d
    edges = []
    for r in range(d ** 3):
        x, y, z = rmt_decompose(r, d)
        edges.append(DeBruijnEdge((x, y), (y, z), r, rule.table[r]))
    return DeBruijnGraph(d, tuple(edges))


def step_on_graph(graph: DeBruijnGraph, cells: Configuration) -> Configuration:
    """Evaluate the global map by walking the de Bruijn graph.

    Starting at the vertex made of the first two cells, follow the edge
    whose label extends the window by the next cell; the edge outputs form
    the next configuration. Must agree with :func:`step` everywhere.
    """
    n = validate_cell_count(len(cells))
    d = graph.d
    out = []
    vertex = (cells[0], cells[1])
    for i in range(n):
        nxt = cells[(i + 2) % n]
        edge = graph.edge_for_rmt(vertex[0] * d * d + vertex[1] * d + nxt)
        assert edge.src == vertex
        out.append(edge.output)
        vertex = edge.dst
    assert vertex == (cells[0], cells[1])
    return tuple(out)


def export_dot(graph: DeBruijnGraph) -> str:
    """Render the graph as DOT text with edge labels ``xyz/v``."""
    lines = ["digraph debruijn {", "  rankdir=LR;"]
    for a, b in graph.vertices:
        lines.append(f'  "{a}{b}";')
    for e in graph.edges:  # ascending RMT order keeps output deterministic
        x, y = e.src
        _, z = e.dst
        lines.append(f'  "{x}{y}" -> "{y}{z}" [label="{x}{y}{z}/{e.output}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
