"""Behaviour digest of the decider and the lattice test over a fixed corpus.

Run from any checkout, with no arguments:

    python3 tools/parity.py

It imports revca from the ``src/`` of the checkout it sits in, runs the
calls below on a fixed rule corpus and prints the sha256 of their
serialised records on stdout. Each record section's count and sha256 go
to stderr, so a mismatch names its section. Two checkouts whose digests
agree give the same verdicts, witnesses, frontier sequences, budget
errors and injectivity witnesses on every case, so a change meant to
keep behaviour is checked by running this on its parent and on itself.
It takes about a minute on one core.

Corpus (562 rules): all 256 two-state rules; 60 each of Strategy I, II
and III 3-state rules (seed 41); 100 random balanced 3-state rules (seed
42); 20 Strategy III 4-state rules (seed 43); 6 Strategy III 5-state
rules (seed 44). Records:

* ``decide_range(rule, 3, 12)`` for every corpus rule;
* ``decide(rule, n, node_budget=B)`` for B in {20000, 300} and n in
  {4, 7, 13, 1000, 10**6};
* ``frontier_closure(rule, node_budget=3000)`` for every balanced rule:
  frontier sizes, (q, p), every level's nodes and the witnesses
  ``decide`` gives on it at n in {3, 4, 5, 8, 13, 10**6};
* a ``FrontierClosure(rule, node_budget=3000)`` that decides n = 3..12
  and is then asked for ``frontier_at(10**6)``: the same fields, and the
  witnesses at n = 3..12 again;
* the least working ``node_budget`` (bisection up to 20000) for 40
  balanced rules and n in {4, 6, 9, 13, 1000, 10**6};
* ``infinite_injective`` on the corpus, all 222 Strategy III 3-state
  rules, 300 Strategy III 4-state rules (seed 45) and 100 Strategy I
  4-state rules (seed 46).

Every ``ResourceLimitError`` is recorded with its message,
``frontier_sizes`` and ``budget`` in place of the result.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from revca import FrontierClosure, ResourceLimitError, Rule, decide, decide_range  # noqa: E402
from revca.decider import frontier_closure  # noqa: E402
from revca.infinite import infinite_injective  # noqa: E402
from revca.rules import format_rule, is_balanced  # noqa: E402
from revca.strategies import enumerate_strategy, random_balanced_rules, sample_strategy  # noqa: E402

BIG = 10**6
SINGLE_NS = (4, 7, 13, 1000, BIG)
SINGLE_BUDGETS = (20000, 300)
CLOSURE_BUDGET = 3000
CLOSURE_NS = (3, 4, 5, 8, 13, BIG)
BISECT_NS = (4, 6, 9, 13, 1000, BIG)
BISECT_MAX = 20000
BISECT_RULES = 40


def corpus() -> list[Rule]:
    rules = [Rule(2, table) for table in itertools.product(range(2), repeat=8)]
    for strategy in ("I", "II", "III"):
        rules += sample_strategy(strategy, 3, 60, seed=41)
    rules += random_balanced_rules(3, 100, seed=42)
    rules += sample_strategy("III", 4, 20, seed=43)
    rules += sample_strategy("III", 5, 6, seed=44)
    return rules


def error(exc: ResourceLimitError) -> dict:
    sizes = exc.frontier_sizes
    return {
        "error": str(exc),
        "frontier_sizes": None if sizes is None else list(sizes),
        "budget": exc.budget,
    }


def witness(w) -> dict | None:
    if w is None:
        return None
    return {
        "kind": w.kind,
        "detail": w.detail,
        "level": w.level,
        "edge_state": w.edge_state,
        "expected": w.expected,
        "actual": w.actual,
        "node": None if w.node is None else [w.node.d, w.node.bits],
    }


def verdict(v) -> dict:
    return {
        "n": v.n,
        "reversible": v.reversible,
        "preperiod": v.preperiod,
        "period": v.period,
        "frontier_sizes": list(v.frontier_sizes),
        "witness": witness(v.witness),
    }


def closure_record(closure, ns) -> dict:
    return {
        "sizes": list(closure.frontier_sizes()),
        "q": closure.preperiod,
        "p": closure.period,
        "levels": [sorted(node.bits for node in level) for level in closure.levels],
        "witnesses": [witness(decide(closure.rule, n, closure=closure).witness) for n in ns],
    }


def guarded(call):
    try:
        return call()
    except ResourceLimitError as exc:
        return error(exc)


def least_budget(rule: Rule, n: int) -> int | None:
    def works(budget: int) -> bool:
        try:
            decide(rule, n, node_budget=budget)
        except ResourceLimitError:
            return False
        return True

    if not works(BISECT_MAX):
        return None
    lo, hi = 1, BISECT_MAX
    while lo < hi:
        mid = (lo + hi) // 2
        if works(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def decided_then_extended(rule: Rule) -> dict:
    closure = FrontierClosure(rule, node_budget=CLOSURE_BUDGET)
    before = [witness(decide(rule, n, closure=closure).witness) for n in range(3, 13)]
    closure.frontier_at(BIG)
    record = closure_record(closure, range(3, 13))
    record["before"] = before
    return record


def records(rules: list[Rule]) -> dict:
    balanced = [rule for rule in rules if is_balanced(rule)]
    stride = len(balanced) // BISECT_RULES
    bisected = balanced[::stride][:BISECT_RULES]
    injective_rules = (
        rules
        + list(enumerate_strategy("III", 3))
        + sample_strategy("III", 4, 300, seed=45)
        + sample_strategy("I", 4, 100, seed=46)
    )
    out = {"ranges": [], "singles": [], "closures": [], "extended": [], "budgets": [], "injective": []}
    for rule in rules:
        text = format_rule(rule)
        out["ranges"].append(
            [text, guarded(lambda: [verdict(v) for v in decide_range(rule, 3, 12).values()])]
        )
        for budget in SINGLE_BUDGETS:
            for n in SINGLE_NS:
                out["singles"].append(
                    [text, budget, n, guarded(lambda: verdict(decide(rule, n, node_budget=budget)))]
                )
    for rule in balanced:
        text = format_rule(rule)
        out["closures"].append(
            [text, guarded(lambda: closure_record(frontier_closure(rule, CLOSURE_BUDGET), CLOSURE_NS))]
        )
        out["extended"].append([text, guarded(lambda: decided_then_extended(rule))])
    for rule in bisected:
        for n in BISECT_NS:
            out["budgets"].append([format_rule(rule), n, least_budget(rule, n)])
    for rule in injective_rules:
        out["injective"].append([format_rule(rule), rule.d, infinite_injective(rule).to_dict()])
    return out


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def main() -> None:
    out = records(corpus())
    for name, rows in out.items():
        errors = sum('"error"' in json.dumps(row) for row in rows)
        print(
            f"{name}: {len(rows)} records, {errors} with budget errors, sha256 {digest(rows)}",
            file=sys.stderr,
        )
    print(digest(out))


if __name__ == "__main__":
    main()
