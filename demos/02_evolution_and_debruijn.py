"""Evolving ring configurations and reading the de Bruijn graph.

    python demos/02_evolution_and_debruijn.py
"""

from revca import parse_rule
from revca.evolution import (
    export_dot,
    format_configuration,
    orbit,
    parse_configuration,
    step,
    step_on_graph,
)

rule = parse_rule("201210210201210210201210210", 3)
cells = parse_configuration("1012", 3)

print("one update of the ring 1012:")
print("  direct formula :", format_configuration(step(rule, cells)))
print("  de Bruijn walk :", format_configuration(step_on_graph(rule, cells)))

dot = export_dot(rule).splitlines()
edges = sum("->" in line for line in dot)
vertices = sum(line.endswith('";') for line in dot)
print("\nthe rule's de Bruijn graph has", vertices, "vertices and", edges, "edges")
print("first few DOT lines:")
print("\n".join(dot[:6]))

print("\nthis rule is reversible, so every trajectory is a pure cycle:")
result = orbit(rule, cells, t_max=100)
for t, state in enumerate(result.states[:6]):
    print(f"  t={t}: {format_configuration(state)}")
print(
    f"  ... the start state recurs at t={result.repeat_at} "
    f"(cycle entry t={result.cycle_start}, no transient)"
)

print("\nan irreversible rule funnels everything into a fixed point:")
sink = parse_rule("00000000", 2)
result = orbit(sink, parse_configuration("0101", 2), t_max=5)
for t, state in enumerate(result.states):
    print(f"  t={t}: {format_configuration(state)}")
