"""Rule tables, RMT arithmetic, and the equivalent/sibling partitions.

Run after installing the package (pip install -e .):

    python demos/01_rules_and_rmt_sets.py
"""

from revca import parse_rule
from revca.rules import equi_set, is_balanced, rmt_decompose, sibl_set

# A 3-state rule is a table of 27 next states, one per neighborhood
# triple. The string lists them with the entry for triple (0,0,0) as the
# rightmost symbol.
rule = parse_rule("201210210201210210201210210", 3)
print("rule:", rule)
print("states:", rule.d, "table length:", len(rule.table))

print("\nA few rule min terms (RMT = x*d^2 + y*d + z):")
for r in (0, 5, 19, 26):
    x, y, z = rmt_decompose(r, 3)
    print(f"  RMT {r:>2} = neighborhood {x}{y}{z} -> next state {rule[r]}")

print("\nEquivalent sets (same last two symbols -> same de Bruijn target):")
for i in range(4):
    print(f"  Equi {i}: {sorted(equi_set(i, 3))}")

print("\nSibling sets (same first two symbols -> same de Bruijn source):")
for j in range(4):
    print(f"  Sibl {j}: {sorted(sibl_set(j, 3))}")

print("\nBoth families partition the 27 RMTs into 9 cells of 3.")

print("\nBalance (a necessary condition for reversibility):")
for text in ("201210210201210210201210210", "000111222000111222000111220"):
    r = parse_rule(text, 3)
    print(f"  {text}: counts {r.state_counts()} -> balanced={is_balanced(r)}")
