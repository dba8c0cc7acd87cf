"""Deciding reversibility with the minimized reachability tree.

    python demos/03_deciding_reversibility.py
"""

import time

from revca import decide, decide_range, oracle_is_reversible, parse_rule
from revca.decider import frontier_closure

print("a rule that is irreversible on 4 cells, with the failing tree edge:")
fig2 = parse_rule("201012210201012210201012210", 3)
verdict = decide(fig2, 4)
print(f"  outcome: {verdict.outcome}")
print(f"  witness: {verdict.witness.detail}")
print(f"  oracle agrees: bijective={oracle_is_reversible(fig2, 4).bijective}")

print("\na rule whose reversibility depends on the ring size:")
odd = parse_rule("102221010102221010102221010", 3)
for n, v in decide_range(odd, 3, 10).items():
    print(f"  n={n}: {v.outcome}")

print("\nthe frontier sequence behind the large-n jump:")
blocks = parse_rule("000111222000111222000111222", 3)
closure = frontier_closure(blocks)
print(f"  frontier sizes by level: {closure.frontier_sizes()}")
print(f"  preperiod q={closure.preperiod}, period p={closure.period}")
print("  so level n-3 is a computed frontier for every n, no tree growth")

t0 = time.perf_counter()
verdict = decide(blocks, 10 ** 6)
elapsed = time.perf_counter() - t0
print(f"\n  decide at n=1,000,000: {verdict.outcome} in {elapsed * 1000:.2f} ms")

print("\nunbalanced rules are rejected before any tree is built:")
verdict = decide(parse_rule("00000000", 2), 50)
print(f"  outcome: {verdict.outcome} ({verdict.witness.detail})")
