"""Ring reversibility versus injectivity on the unbounded lattice.

    python demos/05_finite_versus_infinite.py
"""

import itertools

from revca import Rule, infinite_injective, parse_rule
from revca.infinite import conjecture_experiment
from revca.rules import format_rule

print("a rule the unbounded-lattice test rejects, with its witness:")
odd = parse_rule("102221010102221010102221010", 3)
result = infinite_injective(odd)
print(f"  injective: {result.injective}")
w = result.witness
print(f"  two distinct periodic preimages share outputs {w.outputs}:")
print(f"    left  windows/RMTs: {w.pairs[0][0]} ... via RMTs {w.left_rmts}")
print(f"    right windows/RMTs: {w.pairs[0][1]} ... via RMTs {w.right_rmts}")
print("  yet the same rule IS reversible on every odd-sized ring.")

print("\nexhaustive 2-state study, rings of 3..10 cells:")
rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
report = conjecture_experiment(2, rules, 3, 10)
print(f"  rules tested: {len(report.rows)}")
print(f"  injective on the unbounded lattice but irreversible on some ring: "
      f"{len(report.counterexamples)}")
print(f"  reversible on some ring but not unbounded-injective: "
      f"{len(report.finite_only)}")
print("  (counterexamples is empty by the theorem in revca/infinite.py;")
print("   only finite_only is measured, over the tested ring sizes)")

print("\n  a few ring-only reversible rules and the sizes they work at:")
for row in report.finite_only[:5]:
    sizes = sorted(n for n, ok in row.verdicts.items() if ok)
    print(f"    {format_rule(row.rule)}: reversible for n in {sizes}")
