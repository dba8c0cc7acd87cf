"""Greedy rule families, counting, and sampling."""

import functools
import itertools
import math
import operator

import pytest

from revca import NodeClass, Rule, child, edge_label, parse_rule, sample_strategy
from revca.rules import equi_set, format_rule, is_balanced
from revca.strategies import (
    count_balanced,
    enumerate_strategy,
    random_balanced_rules,
    rule_at,
    strategy_family_size,
    strategy_index_of,
)
from revca.tree import root


def test_count_balanced_closed_form():
    assert count_balanced(2) == 70
    assert count_balanced(3) == math.factorial(27) // math.factorial(9) ** 3
    assert count_balanced(4) == math.factorial(64) // math.factorial(16) ** 4


def test_count_balanced_matches_exhaustive_scan():
    found = sum(
        1
        for bits in itertools.product(range(2), repeat=8)
        if is_balanced(Rule(2, bits))
    )
    assert found == 70 == count_balanced(2)


def test_family_sizes_by_enumeration():
    fam_i = [format_rule(r) for r in enumerate_strategy("I", 2)]
    fam_ii = [format_rule(r) for r in enumerate_strategy("II", 2)]
    assert len(fam_i) == len(set(fam_i)) == 16 == strategy_family_size("I", 2)
    assert len(fam_ii) == len(set(fam_ii)) == 16 == strategy_family_size("II", 2)
    fam_iii = [format_rule(r) for r in enumerate_strategy("III", 3)]
    assert len(fam_iii) == len(set(fam_iii)) == 222 == strategy_family_size("III", 3)
    assert strategy_family_size("III", 3) == math.factorial(3) + math.factorial(3) ** 3


def test_strategy_iii_arms_are_disjoint():
    fam = [format_rule(r) for r in enumerate_strategy("III", 2)]
    assert len(fam) == len(set(fam)) == 2 + 4


def test_strategy_definitions_hold():
    for rule in enumerate_strategy("I", 2):
        for i in range(4):
            values = {rule[r] for r in equi_set(i, 2)}
            assert len(values) == 2
    for rule in enumerate_strategy("II", 2):
        for j in range(4):
            assert len({rule[2 * j], rule[2 * j + 1]}) == 2
    for rule in enumerate_strategy("III", 3):
        for j in range(9):
            assert len({rule[3 * j + k] for k in range(3)}) == 1


def test_named_rules_are_members():
    assert strategy_index_of("I", parse_rule("222222222111111111000000000", 3)) is not None
    assert strategy_index_of("II", parse_rule("120120210120120210120120210", 3)) is not None
    assert strategy_index_of("III", parse_rule("222111000222111000222111000", 3)) is not None
    assert strategy_index_of("III", parse_rule("222000111222111000222111000", 3)) is not None
    # the other direction: something balanced that belongs to none
    stray = parse_rule("201012210201012210201012210", 3)
    assert strategy_index_of("III", stray) is None


def test_strategy_overlap_is_nonempty():
    # three-cell sum mod 3 satisfies both the equivalent-set and the
    # sibling-set distinctness constraints
    d = 3
    table = tuple((r // 9 + (r // 3) % 3 + r % 3) % 3 for r in range(27))
    rule = Rule(d, table)
    assert strategy_index_of("I", rule) is not None
    assert strategy_index_of("II", rule) is not None


def test_index_roundtrip():
    import random

    rng = random.Random(5)
    for strategy in ("I", "II", "III"):
        size = strategy_family_size(strategy, 3)
        for _ in range(25):
            index = rng.randrange(size)
            assert strategy_index_of(strategy, rule_at(strategy, 3, index)) == index


def test_every_emitted_rule_is_balanced():
    for strategy, d in (("I", 2), ("II", 2), ("III", 2), ("III", 3)):
        assert all(is_balanced(r) for r in enumerate_strategy(strategy, d))
    for strategy in ("I", "II"):
        assert all(is_balanced(r) for r in sample_strategy(strategy, 3, 50, seed=1))


def test_sampling_is_deterministic():
    a = sample_strategy("I", 3, 10, seed=42)
    b = sample_strategy("I", 3, 10, seed=42)
    assert a == b
    c = sample_strategy("I", 3, 10, seed=43)
    assert a != c


@pytest.mark.parametrize("strategy", ["I", "II"])
@pytest.mark.parametrize("d", [4, 5, 6])
def test_sampling_families_beyond_machine_int(strategy, d):
    # (d!)**(d**2) exceeds sys.maxsize from d = 4 on
    rules = sample_strategy(strategy, d, 5, seed=3)
    assert len(set(rules)) == 5
    assert all(strategy_index_of(strategy, r) is not None for r in rules)
    assert sample_strategy(strategy, d, 5, seed=3) == rules
    assert sample_strategy(strategy, d, 5, seed=4) != rules


def test_sampling_clips_to_family():
    full = list(enumerate_strategy("I", 2))
    assert sample_strategy("I", 2, 16, seed=0) == full
    with pytest.warns(UserWarning):
        clipped = sample_strategy("I", 2, 99, seed=0)
    assert clipped == full


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_strategy("I", 2, 0, seed=0)
    with pytest.raises(ValueError):
        strategy_family_size("IV", 2)


def test_strategy_one_level1_nodes_cover_all_rmts():
    # each root edge of a strategy-I rule takes exactly one RMT per
    # equivalent set, so every level-1 node again holds all d**3 RMTs
    for rule in sample_strategy("I", 3, 100, seed=7):
        node = root(3)
        for m in range(3):
            label = edge_label(node, rule, m)
            union = functools.reduce(operator.or_, label.by_window)
            assert union.bit_count() == 9
            for i in range(9):
                assert (union & sum(1 << r for r in equi_set(i, 3))).bit_count() == 1
            level1 = child(label, NodeClass.INTERIOR)
            assert functools.reduce(operator.or_, level1.by_window) == (1 << 27) - 1


def test_random_balanced_rules():
    rules = random_balanced_rules(3, 20, seed=11)
    assert len(rules) == 20
    assert all(is_balanced(r) for r in rules)
    assert rules == random_balanced_rules(3, 20, seed=11)
