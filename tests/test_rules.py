"""Rule table, RMT arithmetic, and the equivalent/sibling set algebra."""

import collections
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revca import Rule, parse_rule
from revca.errors import RuleFormatError
from revca.rules import (
    equi_set,
    format_rule,
    is_balanced,
    rmt_decompose,
    rmt_index,
    sibl_set,
)

FIG1_RULE = "201210210201210210201210210"


def test_rmt_decompose_table_entries():
    assert rmt_decompose(19, 3) == (2, 0, 1)
    assert rmt_decompose(0, 3) == (0, 0, 0)
    assert rmt_decompose(63, 4) == (3, 3, 3)


def test_rmt_decompose_out_of_range():
    with pytest.raises(ValueError):
        rmt_decompose(27, 3)
    with pytest.raises(ValueError):
        rmt_decompose(-1, 3)


@given(st.integers(2, 6), st.data())
def test_rmt_roundtrip(d, data):
    r = data.draw(st.integers(0, d ** 3 - 1))
    x, y, z = rmt_decompose(r, d)
    assert rmt_index(x, y, z, d) == r


def test_equi_set_rows():
    assert equi_set(1, 3) == (1, 10, 19)
    assert set(equi_set(1, 3)) == {1, 10, 19}
    assert set(equi_set(0, 3)) == {0, 9, 18}
    assert set(equi_set(3, 2)) == {3, 7}


def test_sibl_set_rows():
    assert sibl_set(1, 3) == (3, 4, 5)
    assert set(sibl_set(1, 3)) == {3, 4, 5}
    assert set(sibl_set(8, 3)) == {24, 25, 26}
    assert set(sibl_set(0, 2)) == {0, 1}


def test_full_relation_table_d3():
    # all nine incoming/outgoing sets of the 3-state relation table
    for i in range(9):
        assert set(equi_set(i, 3)) == {i, 9 + i, 18 + i}
        assert set(sibl_set(i, 3)) == {3 * i, 3 * i + 1, 3 * i + 2}


@given(st.integers(2, 6))
def test_families_partition_rmt_space(d):
    all_rmts = set(range(d ** 3))
    equis = [set(equi_set(i, d)) for i in range(d * d)]
    sibls = [set(sibl_set(j, d)) for j in range(d * d)]
    for family in (equis, sibls):
        assert all(len(s) == d for s in family)
        union = set().union(*family)
        assert union == all_rmts
        assert sum(len(s) for s in family) == len(all_rmts)


@given(st.integers(2, 6), st.data())
def test_equivalent_rmts_share_successor_siblings(d, data):
    # following any member of an equivalent set leads to the sibling set
    # of the same index
    i = data.draw(st.integers(0, d * d - 1))
    for r in equi_set(i, d):
        successors = {(d * r + t) % d ** 3 for t in range(d)}
        assert successors == set(sibl_set(i, d))


def test_index_out_of_range():
    with pytest.raises(ValueError):
        equi_set(9, 3)
    with pytest.raises(ValueError):
        sibl_set(-1, 3)


def test_is_balanced_examples():
    assert is_balanced(parse_rule(FIG1_RULE, 3))
    assert not is_balanced(parse_rule("00000000", 2))
    assert not is_balanced(parse_rule("000111222000111222000111220", 3))


def test_is_balanced_matches_histogram():
    rng = random.Random(99)
    for _ in range(10_000):
        d = rng.choice((2, 3))
        table = tuple(rng.randrange(d) for _ in range(d ** 3))
        rule = Rule(d, table)
        counts = collections.Counter(table)
        expect = all(counts[m] == d * d for m in range(d))
        assert is_balanced(rule) == expect


def test_parse_rule_orientation():
    rule = parse_rule(FIG1_RULE, 3)
    assert rule[0] == 0
    assert rule[1] == 1
    assert rule[26] == 2


def test_parse_constant_rule():
    rule = parse_rule("11111111", 2)
    assert all(v == 1 for v in rule.table)


def test_parse_rejects_wrong_length():
    with pytest.raises(RuleFormatError):
        parse_rule("20121021020121021020121021", 3)  # 26 symbols


def test_parse_rejects_bad_symbol():
    with pytest.raises(RuleFormatError) as err:
        parse_rule("201210210201210210201210215", 3)
    assert err.value.position == 26
    # only ASCII digits: Arabic-Indic one, fullwidth one, superscript two
    for digit in ("\u0661", "\uff11", "\u00b2"):
        with pytest.raises(RuleFormatError) as err:
            parse_rule("1100110" + digit, 2)
        assert err.value.position == 7


def test_parse_csv_form():
    rule = parse_rule(",".join(FIG1_RULE), 3)
    assert rule == parse_rule(FIG1_RULE, 3)
    with pytest.raises(RuleFormatError):
        parse_rule("2,0,x,1", 2)
    with pytest.raises(RuleFormatError) as err:
        parse_rule("0,0,-1,0,0,0,0,0", 2)
    assert err.value.position == 2
    assert parse_rule("0, +1,0,0,0,0,0,0", 2) == parse_rule("01000000", 2)
    for entry in ("0_1", "\u0661", "\uff11", "\u00b2", "+-1", "1.0"):
        with pytest.raises(RuleFormatError) as err:
            parse_rule(f"0,0,0,{entry},0,0,0,0", 2)
        assert err.value.position == 3


@given(st.integers(2, 4), st.data())
def test_parse_format_roundtrip(d, data):
    table = tuple(data.draw(st.integers(0, d - 1)) for _ in range(d ** 3))
    rule = Rule(d, table)
    assert parse_rule(format_rule(rule), d) == rule


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule(7, tuple([0] * 343))  # above the state cap
    with pytest.raises(ValueError):
        Rule(2, (0, 1))  # wrong length
    with pytest.raises(ValueError):
        Rule(2, tuple([2] * 8))  # entry out of range
    with pytest.raises(ValueError):
        parse_rule("00000000", 1)


def test_rule_next_state_and_masks():
    rule = parse_rule(FIG1_RULE, 3)
    assert rule.next_state(2, 0, 1) == rule[19]
    for m in range(3):
        assert {r for r in range(27) if rule.value_masks[m] >> r & 1} == {
            r for r in range(27) if rule[r] == m
        }

