"""Output checks. Each returns a list of problems; an empty list passes.

They compare revca's outputs with :mod:`reference` or with a property the
output must have. None compares against stored output.
"""

from __future__ import annotations

import json
from math import factorial

import reference


def strategy_problem(text: str, strategy: str, d: int) -> str | None:
    """Why ``text`` is not a member of the strategy family, or None.

    I: each equivalent set (RMTs sharing their last two cells) maps to d
    distinct states. II: the same for each sibling set (first two cells).
    III: each sibling set is constant, and for each block of d sibling
    sets either every block is constant with the block values distinct,
    or within every block the d values are distinct.
    """
    try:
        table = reference.table_of(text, d)
    except ValueError as exc:
        return str(exc)
    dd = d * d
    states = set(range(d))
    if strategy == "I":
        ok = all({table[x * dd + i] for x in range(d)} == states for i in range(dd))
    elif strategy == "II":
        ok = all({table[d * j + k] for k in range(d)} == states for j in range(dd))
    elif strategy == "III":
        if any(len({table[d * j + k] for k in range(d)}) != 1 for j in range(dd)):
            return f"{text}: a sibling set is not constant"
        blocks = [[table[d * (b * d + t)] for t in range(d)] for b in range(d)]
        shared = all(len(set(bv)) == 1 for bv in blocks) and {bv[0] for bv in blocks} == states
        ok = shared or all(set(bv) == states for bv in blocks)
    else:
        return f"unknown strategy {strategy!r}"
    return None if ok else f"{text}: not a Strategy {strategy} rule"


def family_size(strategy: str, d: int) -> int:
    fact = factorial(d)
    return fact + fact ** d if strategy == "III" else fact ** (d * d)


def gen_problems(lines: list[str], strategy: str, d: int, count: int) -> list[str]:
    problems = []
    if len(lines) != count:
        problems.append(f"gen {strategy} d={d}: {len(lines)} lines, expected {count}")
    if len(set(lines)) != len(lines):
        problems.append(f"gen {strategy} d={d}: repeated lines")
    for line in lines:
        p = strategy_problem(line, strategy, d)
        if p is not None:
            problems.append(p)
            break
    return problems


#: Largest ring space on which the brute-force image count also runs.
BRUTE_LIMIT = 20_000


def verdict_problems(text: str, d: int, got: dict[int, bool], lo: int, hi: int) -> list[str]:
    """Ring verdicts for every n in [lo, hi] against the pair graph, and
    against the brute-force image count where d**n <= BRUTE_LIMIT."""
    table = reference.table_of(text, d)
    if lo == hi:
        want = {lo: reference.ring_injective(table, d, lo)}
    else:
        want = reference.ring_injective_range(table, d, lo, hi)
    problems = []
    for n in want:
        if d**n <= BRUTE_LIMIT and (reference.brute_image(table, d, n)[0] == d**n) != want[n]:
            problems.append(f"{text} n={n}: the reference methods disagree")
    if got != want:
        wrong = sorted(n for n in want if got.get(n) != want[n]) or sorted(got)
        problems.append(f"{text}: verdicts differ from the pair graph at n={wrong}")
    return problems


def injectivity_problems(text: str, d: int, injective: bool, witness: dict | None) -> list[str]:
    """Check an injectivity answer against the pair graph, and its witness.

    A witness is two distinct cyclic RMT label paths whose outputs under
    the rule table are equal, position by position, to ``outputs``.
    """
    table = reference.table_of(text, d)
    want = reference.lattice_injective(table, d)
    if injective != want:
        return [f"{text}: injective={injective}, the pair graph says {want}"]
    if injective:
        return [] if witness is None else [f"{text}: injective but has a witness"]
    if witness is None:
        return [f"{text}: not injective but no witness"]
    left = list(witness["left_rmts"])
    right = list(witness["right_rmts"])
    outputs = list(witness["outputs"])
    if not len(left) == len(right) == len(outputs) or left == right:
        return [f"{text}: witness paths are not two distinct paths of equal length"]
    if not (reference.label_path_ok(table, d, left) and reference.label_path_ok(table, d, right)):
        return [f"{text}: witness is not two closed label paths"]
    if [table[r] for r in left] != outputs or [table[r] for r in right] != outputs:
        return [f"{text}: witness paths do not give the stated outputs"]
    return []


def oracle_problems(text: str, d: int, n: int, payload: dict) -> list[str]:
    image, indegree = reference.brute_image(reference.table_of(text, d), d, n)
    want = {"image_size": image, "max_indegree": indegree, "bijective": image == d ** n, "space": d ** n}
    got = {k: payload.get(k) for k in want}
    return [] if got == want else [f"{text} n={n}: oracle said {got}, brute force {want}"]


def evolve_problems(text: str, d: int, config: str, steps: int, lines: list[str]) -> list[str]:
    table = reference.table_of(text, d)
    cells = tuple(int(ch) for ch in config)
    want = [f"0 {config}"]
    for t in range(1, steps + 1):
        cells = reference.step(table, d, cells)
        want.append(f"{t} {''.join(map(str, cells))}")
    return [] if lines == want else [f"{text}: evolve trace from {config} differs from the reference step"]


def check_text_problems(text: str, d: int, n: int, returncode: int, stdout: str) -> list[str]:
    """``revca check --cells n`` in text form: first line and exit code."""
    reversible = reference.ring_injective(reference.table_of(text, d), d, n)
    word = "Reversible" if reversible else "Irreversible"
    first = stdout.splitlines()[:1]
    if first != [f"n={n}: {word}"] or returncode != (0 if reversible else 1):
        return [f"{text} n={n}: check printed {first} with exit {returncode}, expected {word}"]
    return []


def check_range_problems(text: str, d: int, lo: int, hi: int, returncode: int, stdout: str) -> list[str]:
    """``revca check --cells-range lo:hi --format json``."""
    try:
        results = json.loads(stdout)["results"]
        got = {r["n"]: r["outcome"] == "reversible" for r in results}
        ordered = [r["n"] for r in results] == list(range(lo, hi + 1))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{text}: unreadable verdict-range JSON ({exc})"]
    problems = verdict_problems(text, d, got, lo, hi)
    if not ordered:
        problems.append(f"{text}: results not ordered by n")
    if returncode != (0 if all(got.values()) else 1):
        problems.append(f"{text}: exit {returncode} does not match the verdicts")
    return problems
