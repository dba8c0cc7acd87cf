"""Generating candidate reversible rules with the three greedy families.

    python demos/04_hunting_reversible_rules.py
"""

from revca import decide, sample_strategy
from revca.rules import format_rule
from revca.strategies import count_balanced, enumerate_strategy, strategy_family_size

print("balanced rules are necessary but nowhere near sufficient:")
for d in (2, 3, 4):
    print(f"  d={d}: {count_balanced(d):,} balanced rules")

print("\nfamily sizes (Strategy I/II: distinct values per equivalent/sibling")
print("set; Strategy III: constant sibling sets with block structure):")
for strategy in ("I", "II", "III"):
    for d in (2, 3):
        print(f"  strategy {strategy}, d={d}: {strategy_family_size(strategy, d):,}")

print("\nStrategy III for d=3 is small enough to sweep completely (n=5):")
family = list(enumerate_strategy("III", 3))
reversible = [r for r in family if decide(r, 5).reversible]
print(f"  {len(reversible)} of {len(family)} are reversible on 5 cells")
print("  first few hits:")
for rule in reversible[:5]:
    print("   ", format_rule(rule))

print("\nStrategies I/II for d=3 have ~10^7 members; sample instead:")
for strategy in ("I", "II"):
    rules = sample_strategy(strategy, 3, 300, seed=2024)
    hits = [r for r in rules if any(decide(r, n).reversible for n in (4, 5))]
    print(f"  strategy {strategy}: {len(hits)}/300 sampled rules reversible on 4 or 5 cells")

print("\nthe families are candidate generators: membership does not imply")
print("reversibility, so every pick still goes through the decider.")
