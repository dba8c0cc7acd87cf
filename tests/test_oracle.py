"""Brute-force global map enumeration."""

import pytest

from revca import ResourceLimitError, Rule, oracle_is_reversible, parse_rule
from revca.evolution import step
from revca.oracle import find_nonreachable

FIG1_RULE = "201210210201210210201210210"
FIG2_RULE = "201012210201012210201012210"


def test_center_projection_is_bijective():
    rule = parse_rule("11001100", 2)  # f(x,y,z) = y: a rotation of the ring
    summary = oracle_is_reversible(rule, 5)
    assert summary.bijective
    assert summary.image_size == 32
    assert summary.max_indegree == 1


def test_fig2_rule_is_not_bijective_at_4():
    summary = oracle_is_reversible(parse_rule(FIG2_RULE, 3), 4)
    assert not summary.bijective
    assert summary.image_size < 81
    assert summary.max_indegree > 1


def test_fig1_rule_is_bijective_at_4():
    summary = oracle_is_reversible(parse_rule(FIG1_RULE, 3), 4)
    assert summary.bijective
    assert summary.image_size == 81


def test_nonreachable_configs_have_no_preimage():
    rule = parse_rule(FIG2_RULE, 3)
    missing = find_nonreachable(rule, 4)
    assert missing
    assert missing == sorted(missing)  # lexicographic order
    all_configs = [
        tuple((u // 3 ** (3 - i)) % 3 for i in range(4)) for u in range(81)
    ]
    images = {step(rule, c) for c in all_configs}
    for c in missing:
        assert c not in images


def test_nonreachable_respects_limit():
    rule = parse_rule(FIG2_RULE, 3)
    full = find_nonreachable(rule, 4)
    assert find_nonreachable(rule, 4, limit=3) == full[:3]
    assert find_nonreachable(rule, 4, limit=0) == []
    assert find_nonreachable(rule, 4, limit=len(full)) == full
    with pytest.raises(ValueError):
        find_nonreachable(rule, 4, limit=-1)


def test_bijective_rule_has_no_nonreachable():
    assert find_nonreachable(parse_rule(FIG1_RULE, 3), 4) == []


def test_constant_rule_reaches_only_zero():
    rule = Rule(2, (0,) * 8)
    missing = find_nonreachable(rule, 3)
    assert len(missing) == 7
    assert (0, 0, 0) not in missing


def test_budget_enforced():
    rule = Rule(2, (0,) * 8)
    with pytest.raises(ResourceLimitError):
        oracle_is_reversible(rule, 5, budget=16)


def test_bad_budget_argument_is_value_error():
    rule = parse_rule(FIG1_RULE, 3)
    for bad in (0, -1, -3, 2.5):
        with pytest.raises(ValueError, match=f"got {bad}"):
            oracle_is_reversible(rule, 4, budget=bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            find_nonreachable(rule, 4, budget=bad)


def test_summary_serialization():
    record = oracle_is_reversible(parse_rule(FIG1_RULE, 3), 4).to_dict()
    assert record["schema"] == "revca/global-map:1"
    assert record["bijective"] is True
    assert record["space"] == 81
    assert record["rule"] == FIG1_RULE


def test_image_size_bounds():
    rule = Rule(2, (0, 1, 1, 0, 1, 0, 0, 1))
    for n in (3, 4, 5, 6):
        s = oracle_is_reversible(rule, n)
        assert s.image_size <= 2 ** n
        assert (s.image_size == 2 ** n) == (s.max_indegree == 1)
