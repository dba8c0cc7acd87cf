"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import itertools
import random
import time

from revca import (
    NodeClass,
    Rule,
    child,
    decide,
    decide_range,
    edge_label,
    oracle_is_reversible,
    parse_rule,
    sample_strategy,
)
from revca.evolution import step, step_on_graph
from revca.infinite import conjecture_experiment
from revca.rules import is_balanced, sibl_set
from revca.strategies import count_balanced, enumerate_strategy, random_balanced_rules
from revca.tree import node_is_balanced, root

FIG2_RULE = "201012210201012210201012210"
FIG1_RULE = "201210210201210210201210210"
SHIFTED_BLOCKS_RULE = "000111222000111222000111222"

ALWAYS_REVERSIBLE_D3 = (
    "222222222111111111000000000",
    "120120210120120210120120210",
    "222111000222111000222111000",
    "222000111222111000222111000",
)
ODD_ONLY_D3 = (
    "102221010102221010102221010",
    "102120210102120210102120210",
    "120021210120021210120021210",
)
FAMILY_EXAMPLES_D4_D5 = (
    ("0123" * 16, 4),
    ("1111222200003333" * 4, 4),
    ("2" * 25 + "1" * 25 + "4" * 25 + "3" * 25 + "0" * 25, 5),
    ("43210" * 25, 5),
    ("0000011111222223333344444" * 5, 5),
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_paper_verdicts():
    with criterion(1, "published verdicts reproduce exactly (< 10 s)"):
        t0 = time.perf_counter()
        assert not decide(parse_rule(FIG2_RULE, 3), 4).reversible
        assert decide(parse_rule(SHIFTED_BLOCKS_RULE, 3), 100).reversible
        for n in range(3, 13):
            assert decide(parse_rule(FIG1_RULE, 3), n).reversible
        for text in ALWAYS_REVERSIBLE_D3:
            verdicts = decide_range(parse_rule(text, 3), 3, 12)
            assert all(v.reversible for v in verdicts.values()), text
        for text in ODD_ONLY_D3:
            verdicts = decide_range(parse_rule(text, 3), 3, 12)
            assert all(v.reversible == (n % 2 == 1) for n, v in verdicts.items()), text
        for text, d in FAMILY_EXAMPLES_D4_D5:
            verdicts = decide_range(parse_rule(text, d), 3, 8)
            assert all(v.reversible for v in verdicts.values()), (d, text[:12])
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"paper-verdict suite took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "decider equals brute-force oracle (256 x d=2, 1000 x d=3)"):
        for bits in itertools.product(range(2), repeat=8):
            rule = Rule(2, bits)
            verdicts = decide_range(rule, 3, 10)
            for n in range(3, 11):
                assert (
                    verdicts[n].reversible == oracle_is_reversible(rule, n).bijective
                ), (bits, n)
        for rule in random_balanced_rules(3, 1000, seed=20240815):
            verdicts = decide_range(rule, 3, 6)
            for n in range(3, 7):
                assert (
                    verdicts[n].reversible == oracle_is_reversible(rule, n).bijective
                ), (rule.table, n)


def test_criterion_3_counting():
    with criterion(3, "balanced-rule and family counts are exact"):
        assert count_balanced(2) == 70
        scan = sum(
            1
            for bits in itertools.product(range(2), repeat=8)
            if is_balanced(Rule(2, bits))
        )
        assert scan == 70
        fam_i = {r.table for r in enumerate_strategy("I", 2)}
        fam_ii = {r.table for r in enumerate_strategy("II", 2)}
        assert len(fam_i) == 16
        assert len(fam_ii) == 16
        fam_iii = {r.table for r in enumerate_strategy("III", 3)}
        assert len(fam_iii) == 222


def _permuted_shift_rules(d):
    """f(x,y,z) = perm(z): a cellwise-permuted rotation, reversible for
    every ring size (and a Strategy II member)."""
    for perm in itertools.permutations(range(d)):
        yield Rule(d, tuple(perm[r % d] for r in range(d ** 3)))


def _certified_reversible_pairs(count):
    """(rule, n) pairs with decide(rule, n) reversible, from the greedy
    families across d = 2..4."""
    pool = itertools.chain(
        enumerate_strategy("I", 2),
        enumerate_strategy("II", 2),
        enumerate_strategy("III", 2),
        enumerate_strategy("III", 3),
        _permuted_shift_rules(3),
        _permuted_shift_rules(4),
        sample_strategy("I", 3, 200, seed=31),
        sample_strategy("II", 3, 200, seed=32),
        sample_strategy("III", 4, 150, seed=33),
    )
    picked, seen = [], set()
    for rule in pool:
        if rule.table in seen:
            continue
        seen.add(rule.table)
        for n in (4, 5):
            if decide(rule, n).reversible:
                picked.append((rule, n))
                break
        if len(picked) == count:
            return picked
    raise AssertionError(f"only found {len(picked)} certified-reversible rules")


def _check_materialized_tree(rule, n):
    """Walk every unique node of every level; verify the completeness
    cardinalities, balance, sibling closure, and label partitioning."""
    d = rule.d
    full = d ** 3

    def klass_for(level):
        if level == n - 2:
            return NodeClass.SECOND_LAST
        if level == n - 1:
            return NodeClass.LAST
        if level == n:
            return NodeClass.LEAF
        return NodeClass.INTERIOR

    def node_total_expected(level):
        if level <= n - 3:
            return full
        if level == n - 2:
            return d * d
        return d  # levels n-1 and n

    def edge_total_expected(level):
        if level <= n - 3:
            return d * d
        if level == n - 2:
            return d
        return 1

    frontier = {root(d)}
    for level in range(n + 1):
        for node in frontier:
            assert node.total() == node_total_expected(level), (level, node)
            if level < n:  # balance is a property of edge-emitting nodes
                assert node_is_balanced(node, rule), (level, node)
            if level <= n - 3 or level == n:
                for w in range(d * d):
                    got = node.by_window[w]
                    for j in range(d * d):
                        sib = sum(1 << r for r in sibl_set(j, d))
                        assert got & sib in (0, sib), (level, w, j)
        if level == n:
            break
        nxt = set()
        for node in frontier:
            for w in range(d * d):
                combined = 0
                for m in range(d):
                    part = node.by_window[w] & rule.value_masks[m]
                    assert combined & part == 0
                    combined |= part
                assert combined == node.by_window[w]
            for m in range(d):
                label = edge_label(node, rule, m)
                assert label.total() == edge_total_expected(level), (level, m)
                nxt.add(child(label, klass_for(level + 1)))
        frontier = nxt


def test_criterion_4_structural_invariants():
    with criterion(4, "100 certified-reversible rules satisfy all node/edge invariants"):
        for rule, n in _certified_reversible_pairs(100):
            _check_materialized_tree(rule, n)


def test_criterion_5_evolution_fidelity():
    with criterion(5, "published evolution example and walk/formula agreement"):
        rule = parse_rule(FIG1_RULE, 3)
        assert step(rule, (1, 0, 1, 2)) == (1, 2, 0, 0)
        rng = random.Random(77)
        for _ in range(1000):
            d = rng.choice((2, 3, 4))
            r = Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3)))
            cells = tuple(rng.randrange(d) for _ in range(rng.randrange(3, 11)))
            assert step(r, cells) == step_on_graph(r, cells)


def test_criterion_6_scalability():
    with criterion(6, "decide at n=1e6 under 5 seconds"):
        rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
        t0 = time.perf_counter()
        verdict = decide(rule, 10 ** 6)
        elapsed = time.perf_counter() - t0
        assert verdict.reversible
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_7_conjecture_experiment():
    with criterion(7, "no infinite-injective rule is finitely irreversible (d=2 exhaustive)"):
        rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
        report = conjecture_experiment(2, rules, 3, 10)
        assert report.counterexamples == ()
        assert len(report.finite_only) >= 1
