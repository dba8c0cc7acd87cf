"""Configuration evolution and the de Bruijn graph view of a rule.

A configuration is a ring of n cells. The global map evaluates, for each
position i, the rule on the length-3 window starting at i:

    out[i] = f(c[i], c[i+1 mod n], c[i+2 mod n])

A rule table already is its de Bruijn graph: the vertices are the d**2
two-cell windows and the d**3 RMTs are the edges, labelled by their
outputs. :func:`step_on_graph` evaluates the global map by walking that
graph along the overlapping windows of c and is checked against
:func:`step`. (Any other alignment of windows to output positions differs
from this one by a rotation, so reversibility is unaffected; this
alignment is the one the reachability tree encodes.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import as_integer
from .rules import Rule, read_states, rmt_decompose, validate_cell_count

Configuration = tuple[int, ...]


def parse_configuration(text: str, d: int) -> Configuration:
    """Parse a ring of at least 3 cells, read by :func:`~revca.rules.read_states`."""
    cells = tuple(read_states(text, d))
    validate_cell_count(len(cells))
    return cells


def format_configuration(cells: Configuration) -> str:
    return "".join(str(s) for s in cells)


def step(rule: Rule, cells: Configuration) -> Configuration:
    """One synchronous update of the ring."""
    n = validate_cell_count(len(cells))
    d = rule.d
    table = rule.table
    cells = tuple(as_integer(s, "cell state", 0, d - 1) for s in cells)
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
    t_max = as_integer(t_max, "t_max", 1)
    states = [tuple(cells)]
    seen = {states[0]: 0}
    for t in range(1, t_max + 1):
        nxt = step(rule, states[-1])
        states.append(nxt)
        if nxt in seen:
            return OrbitResult(tuple(states), seen[nxt], t)
        seen[nxt] = t
    return OrbitResult(tuple(states), None, None)


def step_on_graph(rule: Rule, cells: Configuration) -> Configuration:
    """Evaluate the global map by walking the rule's de Bruijn graph.

    From window w = a*d + b the next cell z picks the edge RMT r = w*d + z,
    which outputs ``rule.table[r]`` and enters window r mod d**2. The walk
    starts at the first two cells' window. Must agree with :func:`step`.
    """
    n = validate_cell_count(len(cells))
    d = rule.d
    table = rule.table
    cells = tuple(as_integer(s, "cell state", 0, d - 1) for s in cells)
    out = []
    window = cells[0] * d + cells[1]
    for i in range(n):
        r = window * d + cells[(i + 2) % n]
        out.append(table[r])
        window = r % (d * d)
    return tuple(out)


def export_dot(rule: Rule) -> str:
    """Render the rule's de Bruijn graph as DOT text with edge labels ``xyz/v``."""
    d = rule.d
    lines = ["digraph debruijn {", "  rankdir=LR;"]
    lines += [f'  "{a}{b}";' for a in range(d) for b in range(d)]
    for r, v in enumerate(rule.table):  # ascending RMT order keeps output deterministic
        x, y, z = rmt_decompose(r, d)
        lines.append(f'  "{x}{y}" -> "{y}{z}" [label="{x}{y}{z}/{v}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
