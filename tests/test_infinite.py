"""Injectivity on the unbounded lattice and the finite-vs-infinite study."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import Rule, decide, decide_range, infinite_injective, pair_graph, parse_rule
from revca.infinite import conjecture_experiment
from revca.strategies import enumerate_strategy, rule_at, strategy_family_size

FIG1_RULE = "201210210201210210201210210"
ODD_ONLY_RULE = "102221010102221010102221010"


def test_fig1_rule_is_injective():
    result = infinite_injective(parse_rule(FIG1_RULE, 3))
    assert result.injective
    assert result.witness is None


def test_projection_rules_are_injective():
    for d in (2, 3):
        for pick in (lambda x, y, z: x, lambda x, y, z: y, lambda x, y, z: z):
            table = tuple(
                pick(r // (d * d), (r // d) % d, r % d) for r in range(d ** 3)
            )
            assert infinite_injective(Rule(d, table)).injective


def _check_witness(rule, witness):
    d = rule.d
    length = len(witness.pairs)
    assert length == len(witness.left_rmts) == len(witness.right_rmts)
    for i in range(length):
        (u1, u2) = witness.pairs[i]
        (v1, v2) = witness.pairs[(i + 1) % length]
        r1, r2 = witness.left_rmts[i], witness.right_rmts[i]
        # windows overlap along each coordinate
        assert r1 == u1[0] * d * d + u1[1] * d + v1[1] and u1[1] == v1[0]
        assert r2 == u2[0] * d * d + u2[1] * d + v2[1] and u2[1] == v2[0]
        # matched outputs
        assert rule[r1] == rule[r2] == witness.outputs[i]
    assert witness.left_rmts != witness.right_rmts


def test_odd_only_rule_fails_injectivity_with_valid_witness():
    rule = parse_rule(ODD_ONLY_RULE, 3)
    result = infinite_injective(rule)
    assert not result.injective
    _check_witness(rule, result.witness)
    assert result.witness.pairs == (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def test_witnesses_are_pinned():
    # which cycle is reported depends on the order the components are met
    # in and on the search inside them; the digest pins every record
    rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
    rules += enumerate_strategy("III", 3)
    records = [infinite_injective(rule).to_dict() for rule in rules]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "bccc1ba56df31067132e8e05da27c5a9dd8ba357b60a7cf2e05f2cc86de8dda4"


def test_known_two_window_pair_is_on_a_matched_cycle():
    # the distinct windows 01/10 chase each other while emitting the same
    # outputs, so the ordered pair ((0,1),(1,0)) must lie on a cycle
    rule = parse_rule(ODD_ONLY_RULE, 3)
    adj = pair_graph(rule)
    start = ((0, 1), (1, 0))
    frontier = set(adj[start])
    seen = set(frontier)
    while frontier and start not in seen:
        frontier = {v for u in frontier for v in adj[u]} - seen
        seen |= frontier
    assert start in seen


def test_three_cell_sum_mod2_not_injective_but_finitely_reversible():
    rule = parse_rule("10010110", 2)
    assert not infinite_injective(rule).injective
    assert decide(rule, 4).reversible
    assert decide(rule, 5).reversible
    assert not decide(rule, 6).reversible


def test_pair_graph_is_swap_symmetric():
    import random

    rng = random.Random(2)
    for _ in range(10):
        d = rng.choice((2, 3))
        rule = Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3)))
        adj = pair_graph(rule)
        for (u, v), outs in adj.items():
            mirrored = {(b, a) for (a, b) in outs}
            assert mirrored == set(adj[(v, u)])


def test_pair_graph_shape():
    rule = parse_rule("10010110", 2)
    adj = pair_graph(rule)
    assert len(adj) == 16  # ordered pairs of 4 windows
    for outs in adj.values():
        assert len(outs) <= 4


def test_conjecture_experiment_small():
    rules = [
        parse_rule(ODD_ONLY_RULE, 3),
        parse_rule(FIG1_RULE, 3),
        parse_rule("000111222000111222000111222", 3),
    ]
    report = conjecture_experiment(3, rules, 3, 6)
    assert not report.counterexamples
    finite_only = {r.rule for r in report.finite_only}
    assert parse_rule(ODD_ONLY_RULE, 3) in finite_only
    record = report.to_dict()
    assert record["schema"] == "revca/conjecture-report:1"
    assert record["counterexamples"] == []
    assert ODD_ONLY_RULE in record["finite_only"]


def test_conjecture_experiment_empty_source():
    report = conjecture_experiment(2, [], 3, 5)
    assert report.rows == ()
    assert report.counterexamples == ()
    assert report.finite_only == ()


def test_conjecture_experiment_rejects_wrong_d():
    with pytest.raises(ValueError):
        conjecture_experiment(2, [parse_rule(FIG1_RULE, 3)], 3, 5)


def test_injective_implies_reversible_spot_check():
    # forward direction on a deterministic slice of the 2-state space;
    # the acceptance suite runs all 256
    for bits in itertools.islice(itertools.product(range(2), repeat=8), 0, 256, 4):
        rule = Rule(2, bits)
        if infinite_injective(rule).injective:
            for n in (3, 4, 5, 6):
                assert decide(rule, n).reversible


def test_injective_implies_reversible_on_every_strategy_iii_rule():
    # the theorem at d = 3: every one of the 222 Strategy III rules that is
    # injective on the lattice is reversible at every tested ring size
    injective = [r for r in enumerate_strategy("III", 3) if infinite_injective(r).injective]
    assert len(injective) == 30
    for rule in injective:
        assert all(v.reversible for v in decide_range(rule, 3, 20).values()), rule


@st.composite
def _strategy_iii_rules(draw):
    d = draw(st.integers(3, 4))
    return rule_at("III", d, draw(st.integers(0, strategy_family_size("III", d) - 1)))


@settings(max_examples=100, deadline=None)
@given(_strategy_iii_rules(), st.one_of(st.integers(3, 60), st.just(10 ** 6)))
def test_injective_implies_reversible_on_drawn_strategy_iii_rules(rule, n):
    if infinite_injective(rule).injective:
        assert decide(rule, n).reversible, (rule.table, n)
