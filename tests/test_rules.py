"""Rule table, RMT arithmetic, and the equivalent/sibling set algebra."""

import collections
import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import Rule, parse_rule
from revca.errors import RuleFormatError
from revca.evolution import orbit, parse_configuration, step, step_on_graph
from revca.oracle import find_nonreachable
from revca.rules import (
    equi_set,
    format_rule,
    is_balanced,
    rmt_decompose,
    rmt_index,
    sibl_set,
)
from revca.strategies import (
    count_balanced,
    random_balanced_rules,
    rule_at,
    sample_strategy,
    strategy_family_size,
)
from revca.tree import edge_label, root

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
    assert str(rule) == FIG1_RULE


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


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.data())
def test_rules_and_rings_are_read_alike(d, comma, data):
    # d**3 states with at most one fault at ``pos``: the rule is the ring
    # read backwards, or both parsers refuse the text at ``pos``
    entries = [str(data.draw(st.integers(0, d - 1))) for _ in range(d ** 3)]
    fault = data.draw(st.sampled_from((None, "non-ASCII digit", "_", "sign", "state >= d")))
    pos = data.draw(st.integers(0, d ** 3 - 1))
    if fault == "non-ASCII digit":
        entries[pos] = data.draw(st.sampled_from(("\u0661", "\uff11", "\u00b2")))
    elif fault == "_":
        entries[pos] = entries[pos] + "_0" if comma else "_"
    elif fault == "sign":
        comma = False  # a signed entry is only a fault among digits
        entries[pos] = data.draw(st.sampled_from("+-"))
    elif fault == "state >= d":
        entries[pos] = str(data.draw(st.integers(d, 20 if comma else 9)))
    text = data.draw(st.sampled_from((",", ", ", " ,"))).join(entries) if comma else "".join(entries)
    try:
        ring = parse_configuration(text, d)
    except RuleFormatError as err:
        with pytest.raises(RuleFormatError) as rule_err:
            parse_rule(text, d)
        assert rule_err.value.position == err.position == pos
        assert fault is not None
    else:
        assert parse_rule(text, d).table[::-1] == ring
        assert fault is None


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


def test_rule_table_entries_must_be_integers():
    # a bool entry would print as "FalseTrue..." in every rule field
    for table in ((True, False) * 4, (1.0, 0) * 4, ("1", "0") * 4):
        with pytest.raises(ValueError, match="table entry must be an integer"):
            Rule(2, table)
    rule = Rule(2, tuple(numpy.int64(v) for v in (1, 0) * 4))
    assert all(type(v) is int for v in rule.table)
    assert rule == Rule(2, (1, 0) * 4)
    assert format_rule(rule) == "01010101"


_FIG1 = parse_rule(FIG1_RULE, 3)


def _arg(function, what, call, probed, good):
    """``call(v)`` calls ``function`` with ``v`` for its argument ``what``;
    ``probed`` is a bad value for it and ``good`` a good one."""
    return pytest.param(what, call, probed, good, id=f"{function}-{what}")


@pytest.mark.parametrize("what, call, probed, good", [
    _arg("sample_strategy", "count", lambda v: sample_strategy("I", 3, v, 0), 0, 2),
    _arg("rule_at", "strategy I index", lambda v: rule_at("I", 2, v), 16, 15),
    _arg("orbit", "t_max", lambda v: orbit(_FIG1, (0, 1, 2, 0), v), 0, 3),
    _arg("find_nonreachable", "limit", lambda v: find_nonreachable(_FIG1, 4, limit=v), -1, 2),
    _arg("count_balanced", "state count", count_balanced, 1, 3),
    _arg("random_balanced_rules", "count", lambda v: random_balanced_rules(3, v, 0), -1, 2),
    _arg("equi_set", "equivalent-set index", lambda v: equi_set(v, 3), 9, 4),
    _arg("sibl_set", "sibling-set index", lambda v: sibl_set(v, 3), -1, 4),
    _arg("edge_label", "edge state", lambda v: edge_label(root(3), _FIG1, v), 3, 1),
    _arg("step", "cell state", lambda v: step(_FIG1, (0, v, 2)), 3, 1),
    _arg("step_on_graph", "cell state", lambda v: step_on_graph(_FIG1, (0, v, 2)), -1, 1),
    _arg("rmt_index", "state", lambda v: rmt_index(v, 2, 0, 3), 3, 1),
    _arg("rmt_decompose", "RMT", lambda v: rmt_decompose(v, 3), 27, 5),
    _arg("parse_configuration", "state count", lambda v: parse_configuration("012", v), 10, 3),
    _arg("Rule", "state count", lambda v: Rule(v, (1, 0) * 4).d, 7, 2),
    _arg("parse_rule", "state count", lambda v: parse_rule("11001100", v), 1, 2),
    _arg("strategy_family_size", "state count", lambda v: strategy_family_size("I", v), 7, 2),
])
def test_integer_arguments_are_checked(what, call, probed, good):
    """An integer argument takes what ``operator.index`` takes and nothing
    else: a value out of range, a float (integral or not) or a bool is a
    ValueError naming the argument, and a numpy int gives the plain-int
    result."""
    for bad in (probed, 1.0, 2.5, True):
        with pytest.raises(ValueError, match=f"^{what} must be "):
            call(bad)
    # a numpy int's repr is np.int64(...), so equal reprs mean plain ints
    # all through the result
    result, expected = call(numpy.int64(good)), call(good)
    assert type(result) is type(expected) and repr(result) == repr(expected)


def test_rule_next_state_and_masks():
    rule = parse_rule(FIG1_RULE, 3)
    assert rule.next_state(2, 0, 1) == rule[19]
    for m in range(3):
        assert {r for r in range(27) if rule.value_masks[m] >> r & 1} == {
            r for r in range(27) if rule[r] == m
        }

