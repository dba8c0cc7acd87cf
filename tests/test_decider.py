"""The minimized-tree decision procedure and its frontier closure."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import traceback

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import (
    FrontierClosure,
    NodeClass,
    ResourceLimitError,
    Rule,
    child,
    decide,
    decide_range,
    edge_label,
    infinite_injective,
    oracle_is_reversible,
    parse_rule,
    sample_strategy,
)
from revca.decider import frontier_closure
from revca.pairs import is_surjective
from revca.strategies import enumerate_strategy, random_balanced_rules, rule_at, strategy_family_size
from revca.tree import TreeNode, expected_edge_total, root

FIG1_RULE = "201210210201210210201210210"
FIG2_RULE = "201012210201012210201012210"
SHIFTED_BLOCKS_RULE = "000111222000111222000111222"
ODD_ONLY_RULE = "102221010102221010102221010"
REVERSIBLE_D4 = (
    "0123" * 16,
    "1111222200003333" * 4,
    # Strategy III rules, reversible at odd n and at every n
    "2222111100003333222233331111000022221111000033332222000033331111",
    "0000333322221111333311110000222211110000222233331111000022223333",
    "1111000022223333111122220000333311112222000033332222111100003333",
    "3333000011112222222211110000333322221111000033333333111100002222",
)
REVERSIBLE_D5 = (
    "2" * 25 + "1" * 25 + "4" * 25 + "3" * 25 + "0" * 25,
    "43210" * 25,
    "0000011111222223333344444" * 5,
)
# a Strategy III rule whose frontier sequence closes at (q, p) = (5, 2)
STRATEGY_III_D5 = (
    "11111222223333344444000000000011111222224444433333"
    "44444222223333300000111110000011111222223333344444"
    "0000011111333334444422222"
)


def test_unbalanced_rule_rejected_without_tree():
    rule = Rule(2, (0,) * 8)
    verdict = decide(rule, 6)
    assert not verdict.reversible
    assert verdict.witness.kind == "unbalanced"
    assert verdict.frontier_sizes == ()


def test_fig2_irreversible_at_4_with_leaf_witness():
    verdict = decide(parse_rule(FIG2_RULE, 3), 4)
    assert not verdict.reversible
    w = verdict.witness
    assert w.kind == "edge_total"
    assert w.level == 3  # the leaf-feeding edges break
    assert w.expected == 1


def test_shifted_blocks_reversible_at_100():
    verdict = decide(parse_rule(SHIFTED_BLOCKS_RULE, 3), 100)
    assert verdict.reversible
    assert (verdict.preperiod, verdict.period) == (2, 1)


def test_fig1_rule_reversible_for_all_small_n():
    rule = parse_rule(FIG1_RULE, 3)
    for n in range(3, 13):
        assert decide(rule, n).reversible


def test_odd_only_rule():
    rule = parse_rule(ODD_ONLY_RULE, 3)
    assert decide(rule, 5).reversible
    assert not decide(rule, 6).reversible
    assert not oracle_is_reversible(rule, 6).bijective
    assert oracle_is_reversible(rule, 5).bijective


def test_rejects_small_n():
    rule = parse_rule(FIG1_RULE, 3)
    with pytest.raises(ValueError):
        decide(rule, 2)


def test_closure_worked_example():
    closure = frontier_closure(parse_rule(SHIFTED_BLOCKS_RULE, 3))
    level1 = sorted(closure.frontier_at(1), key=lambda nd: nd.by_window)
    unions = sorted(tuple(sorted_set(nd)) for nd in level1)
    assert unions == [
        tuple(range(0, 9)),
        tuple(range(9, 18)),
        tuple(range(18, 27)),
    ]
    assert len(closure.frontier_at(2)) == 9
    assert closure.frontier_at(3) == closure.frontier_at(2)
    assert (closure.preperiod, closure.period) == (2, 1)
    assert closure.frontier_sizes()[:3] == (1, 3, 9)


def sorted_set(node):
    out = set()
    for w in range(node.d * node.d):
        out |= set(node.window_set(w))
    return sorted(out)


def test_closure_requires_balanced_rule():
    with pytest.raises(ValueError):
        frontier_closure(Rule(2, (0,) * 8))


def test_closure_periodicity_indexing():
    closure = frontier_closure(parse_rule(SHIFTED_BLOCKS_RULE, 3))
    q, p = closure.preperiod, closure.period
    for level in (5, 17, 1000, 10 ** 9):
        assert closure.frontier_at(level) == closure.frontier_at(q + (level - q) % p)


def test_closure_levels_are_tree_nodes_at_the_boundary():
    # the closure holds node ids inside; callers (bench/layers.py among
    # them) see TreeNodes equal to the frontiers derived by hand. The
    # 5-state rule has 219 distinct nodes, 97 of them new at level 3 (two
    # 64-lane kernel calls), and many that recur from level to level.
    texts = (
        (ODD_ONLY_RULE, 3),
        (FIG2_RULE, 3),
        ("01011010", 2),
        (REVERSIBLE_D4[2], 4),
        (STRATEGY_III_D5, 5),
    )
    for text, d in texts:
        rule = parse_rule(text, d)
        closure = frontier_closure(rule)
        for frontier in closure.levels:
            assert all(isinstance(nd, TreeNode) and nd.d == d for nd in frontier)
        by_hand = {root(d)}
        for level in range(40):  # preperiods here are 2..5
            frontier = closure.frontier_at(level)
            assert all(isinstance(nd, TreeNode) and nd.d == d for nd in frontier)
            assert frontier == by_hand, (text, level)
            labels = [edge_label(nd, rule, m) for nd in by_hand for m in range(d)]
            by_hand = {child(label, NodeClass.INTERIOR) for label in labels}
    assert (closure.preperiod, closure.period) == (5, 2)
    assert len(set().union(*closure.levels)) == 219
    assert len(closure.levels[3] - set().union(*closure.levels[:3])) == 97


def test_frontier_at_rejects_negative_levels():
    closure = frontier_closure(parse_rule(SHIFTED_BLOCKS_RULE, 3))
    for level in (-1, -100):
        with pytest.raises(ValueError, match=f"got {level}"):
            closure.frontier_at(level)


def test_decide_reuses_provided_closure():
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    closure = FrontierClosure(rule)
    verdicts = [decide(rule, n, closure=closure) for n in range(3, 20)]
    fresh = [decide(rule, n) for n in range(3, 20)]
    assert [v.reversible for v in verdicts] == [v.reversible for v in fresh]
    other = parse_rule(FIG1_RULE, 3)
    with pytest.raises(ValueError):
        decide(other, 5, closure=closure)


def _witness_fields(witness):
    if witness is None:
        return None
    return dataclasses.replace(witness, detail="")


def test_decide_range_matches_individual_decides():
    # the odd-only and shifted-blocks closures repeat, so n = 40 reaches
    # frontiers far past the materialized ones
    for text, n_hi in ((FIG2_RULE, 10), (ODD_ONLY_RULE, 40), (SHIFTED_BLOCKS_RULE, 40)):
        rule = parse_rule(text, 3)
        ranged = decide_range(rule, 3, n_hi)
        for n in range(3, n_hi + 1):
            single = decide(rule, n)
            assert ranged[n].reversible == single.reversible
            assert _witness_fields(ranged[n].witness) == _witness_fields(single.witness)


def test_witnesses_are_self_consistent():
    rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
    rules += random_balanced_rules(3, 30, seed=5)
    rules += sample_strategy("I", 3, 10, seed=5)
    rules += [parse_rule(text, 4) for text in REVERSIBLE_D4]
    rules += random_balanced_rules(4, 10, seed=5)
    rules += sample_strategy("III", 4, 10, seed=5)
    levels = set()
    for rule in rules:
        for n in range(3, 11):
            w = decide(rule, n).witness
            if w is None or w.kind != "edge_total":
                continue
            actual = edge_label(w.node, rule, w.edge_state).total()
            assert actual == w.actual != w.expected == expected_edge_total(w.level, n, rule.d)
            levels.add(w.level - n)
    # interior levels and all three ring-closing levels are covered
    assert {-3, -2, -1} <= levels and min(levels) < -3


def test_decide_range_examples():
    rule = parse_rule("120021210120021210120021210", 3)
    verdicts = decide_range(rule, 3, 10)
    assert [n for n in range(3, 11) if verdicts[n].reversible] == [3, 5, 7, 9]
    rule2 = parse_rule("222111000222111000222111000", 3)
    assert all(v.reversible for v in decide_range(rule2, 3, 10).values())
    identity = Rule(2, tuple(r // 4 for r in range(8)))
    assert all(v.reversible for v in decide_range(identity, 3, 10).values())


def test_decide_range_rejects_bad_bounds():
    rule = parse_rule(FIG1_RULE, 3)
    with pytest.raises(ValueError):
        decide_range(rule, 2, 5)
    with pytest.raises(ValueError):
        decide_range(rule, 8, 5)


def test_cell_counts_must_be_integers():
    rule = parse_rule(FIG1_RULE, 3)
    for call in (
        lambda: decide(rule, 4.0),
        lambda: decide(rule, True),
        lambda: decide_range(rule, 3, 5.0),
        lambda: decide_range(rule, 3.0, 5),
        lambda: oracle_is_reversible(rule, 4.0),
        lambda: expected_edge_total(0, 4.0, 3),
    ):
        with pytest.raises(ValueError, match="cell count must be an integer"):
            call()
    verdict = decide(rule, numpy.int64(5))
    assert type(verdict.n) is int and verdict == decide(rule, 5)
    assert type(oracle_is_reversible(rule, numpy.int64(4)).n) is int


def test_large_n_uses_closure_jump():
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    verdict = decide(rule, 10 ** 6)
    assert verdict.reversible
    assert len(verdict.frontier_sizes) < 10  # nothing near 1e6 was materialized


def test_node_budget_is_enforced():
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    with pytest.raises(ResourceLimitError):
        decide(rule, 100, node_budget=2)


def test_kept_budget_error_holds_no_tree():
    # a caller may keep the error (the benchmark does); its frames must
    # not keep the closure, and so the whole tree, alive
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    calls = (
        lambda: decide(rule, 100, node_budget=2),
        lambda: decide_range(rule, 3, 100, node_budget=2),
        lambda: frontier_closure(rule, node_budget=2),
    )
    for call in calls:
        with pytest.raises(ResourceLimitError) as info:
            call()
        held = [v for frame, _ in traceback.walk_tb(info.value.__traceback__) for v in frame.f_locals.values()]
        assert not any(isinstance(v, FrontierClosure) for v in held)
        # it says how far it got, in plain ints that pin nothing
        assert info.value.budget == 2
        assert info.value.frontier_sizes == (1, 3)
        assert all(type(size) is int for size in info.value.frontier_sizes)
        assert not any(isinstance(v, FrontierClosure) for v in gc.get_referents(info.value))


def test_fail_fast_budget_counts_nodes_up_to_the_violator():
    # level 1 has 3 nodes and the first in bits order violates: the root
    # and that node fit a budget of 2, where expanding all of level 1
    # would need 4
    rule = parse_rule("121000011202212202010121012", 3)
    w = decide(rule, 15, node_budget=2).witness
    assert (w.kind, w.level) == ("edge_total", 1)
    with pytest.raises(ResourceLimitError):
        decide(rule, 15, node_budget=1)


def test_closure_expands_past_a_violation_when_asked():
    # deciding stops at the level-1 violation; a later frontier is
    # expanded only when asked for, and the decisions stay the same
    rule = parse_rule("121000011202212202010121012", 3)
    closure = FrontierClosure(rule)
    witness = decide(rule, 15, closure=closure).witness
    assert (witness.kind, witness.level) == ("edge_total", 1)
    assert closure.frontier_sizes() == (1, 3)
    assert closure.frontier_at(5) == frontier_closure(rule).frontier_at(5)
    assert closure.levels_computed == 6
    assert decide(rule, 15, closure=closure).witness == witness
    assert [decide(rule, n, closure=closure).witness for n in range(3, 12)] == [
        decide(rule, n).witness for n in range(3, 12)
    ]


def test_expanding_a_violating_level_counts_all_its_nodes():
    # up to the violator, the root and one level-1 node fit a budget of
    # 2; expanding level 1 needs all 3 of its nodes
    rule = parse_rule("121000011202212202010121012", 3)
    with pytest.raises(ResourceLimitError) as info:
        frontier_closure(rule, node_budget=2)
    assert info.value.frontier_sizes == (1, 3)
    closure = FrontierClosure(rule, node_budget=2)
    assert decide(rule, 15, closure=closure).witness.level == 1
    with pytest.raises(ResourceLimitError) as info:
        closure.frontier_at(2)
    assert info.value.frontier_sizes == (1, 3)


def _closure_within(rule, budget):
    """The rule's frontier closure, or as far as ``budget`` nodes take it."""
    closure = FrontierClosure(rule, node_budget=budget)
    try:
        while not closure.closed:
            closure.frontier_at(closure.levels_computed)
    except ResourceLimitError:
        pass
    return closure


def test_interior_check_fails_exactly_for_non_surjective_rules():
    # the closure skips the interior label check for a surjective rule:
    # count every label of its frontiers here instead; a rule that is not
    # onto must still be caught by that check
    rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
    rules += enumerate_strategy("III", 3)
    for d in (3, 4):
        for i, strategy in enumerate(("I", "II", "III")):
            rules += sample_strategy(strategy, d, 5, seed=10 * d + i)
        rules += random_balanced_rules(d, 10, seed=10 * d + 3)
    outcomes = collections.Counter()
    for rule in rules:
        d = rule.d
        if is_surjective(rule):
            closure = _closure_within(rule, 2000)
            for frontier in closure.levels:
                for node in frontier:
                    assert all(edge_label(node, rule, m).total() == d * d for m in range(d)), rule.table
            outcomes[d, "surjective", closure.closed] += 1
        else:
            closure = FrontierClosure(rule, node_budget=2000)
            assert closure.first_interior_violation(10 ** 6) is not None, rule.table
            outcomes[d, "not onto"] += 1
    assert outcomes == {
        (2, "surjective", True): 30,
        (2, "not onto"): 226,
        (3, "surjective", True): 222 + 5,
        (3, "surjective", False): 10,
        (3, "not onto"): 10,
        (4, "surjective", True): 5,
        (4, "surjective", False): 10,
        (4, "not onto"): 10,
    }


@st.composite
def _strategy_rules_and_words(draw):
    d = draw(st.integers(2, 4))
    strategy = draw(st.sampled_from(("I", "II", "III")))
    rule = rule_at(strategy, d, draw(st.integers(0, strategy_family_size(strategy, d) - 1)))
    return rule, tuple(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=4)))


@settings(max_examples=50, deadline=None)
@given(_strategy_rules_and_words())
def test_surjective_rules_give_distinct_preimage_ends(case):
    # why the closure may skip the interior check: d**2 preimages (Hedlund
    # 1969), no two with equal first two and last two cells (no diamond);
    # the first two cells alone do not tell them apart (Strategy III)
    rule, word = case
    d, m = rule.d, len(word)
    preimages = [
        cells
        for cells in itertools.product(range(d), repeat=m + 2)
        if all(rule.table[cells[i] * d * d + cells[i + 1] * d + cells[i + 2]] == s for i, s in enumerate(word))
    ]
    assert len(preimages) == d * d, (rule.table, word)
    ends = {(cells[:2], cells[-2:]) for cells in preimages}
    assert len(ends) == d * d, (rule.table, word)


@pytest.mark.parametrize(
    "text, d, n, budget",
    [
        # the smallest budget that decides each case, found by bisection
        (SHIFTED_BLOCKS_RULE, 3, 100, 10),
        (FIG1_RULE, 3, 12, 19),
        (ODD_ONLY_RULE, 3, 10 ** 6, 28),
        (FIG2_RULE, 3, 9, 40),
        (REVERSIBLE_D4[2], 4, 10 ** 6, 35),
    ],
)
def test_minimal_node_budget(text, d, n, budget):
    rule = parse_rule(text, d)
    expected = decide(rule, n)
    assert decide(rule, n, node_budget=budget) == expected
    with pytest.raises(ResourceLimitError):
        decide(rule, n, node_budget=budget - 1)


def test_bad_node_budget_argument_is_value_error():
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    for bad in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match=f"got {bad}"):
            decide(rule, 10, node_budget=bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            FrontierClosure(rule, node_budget=bad)
        # checked before the balance check, so an unbalanced rule too
        with pytest.raises(ValueError, match=f"got {bad}"):
            decide(Rule(2, (0,) * 8), 6, node_budget=bad)
    # a closure carries its own budget
    with pytest.raises(ValueError, match="closure"):
        decide(rule, 10, closure=FrontierClosure(rule), node_budget=5)


def test_node_budget_env_override(monkeypatch):
    monkeypatch.setenv("REVCA_NODE_BUDGET", "2")
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    with pytest.raises(ResourceLimitError):
        decide(rule, 100)


def test_verdict_serialization():
    verdict = decide(parse_rule(FIG2_RULE, 3), 4)
    record = verdict.to_dict()
    assert record["schema"] == "revca/verdict:1"
    assert record["outcome"] == "irreversible"
    assert record["rule"] == FIG2_RULE
    assert record["n"] == 4
    assert record["witness_level"] == 3
    assert isinstance(record["witness_detail"], str)
    ok = decide(parse_rule(SHIFTED_BLOCKS_RULE, 3), 100).to_dict()
    assert ok["outcome"] == "reversible"
    assert ok["witness_level"] is None
    assert ok["q"] == 2 and ok["p"] == 1


def test_matches_oracle_for_all_two_state_rules_small():
    # the exhaustive sweep lives in the acceptance suite; keep a fast
    # subset here for quick feedback
    for bits in itertools.product(range(2), repeat=8):
        rule = Rule(2, bits)
        for n in (3, 4, 5):
            assert decide(rule, n).reversible == oracle_is_reversible(rule, n).bijective


def test_matches_oracle_at_four_and_five_states():
    cases = [(parse_rule(text, 4), 7) for text in REVERSIBLE_D4]
    cases += [(parse_rule(text, 5), 5) for text in REVERSIBLE_D5]
    for d, n_hi in ((4, 7), (5, 5)):
        cases += [(rule, n_hi) for rule in random_balanced_rules(d, 10, seed=9)]
        for strategy in ("I", "II", "III"):
            cases += [(rule, n_hi) for rule in sample_strategy(strategy, d, 10, seed=9)]
    outcomes = set()
    for rule, n_hi in cases:
        verdicts = decide_range(rule, 3, n_hi)
        for n in range(3, n_hi + 1):
            assert verdicts[n].reversible == oracle_is_reversible(rule, n).bijective, (rule.table, n)
            outcomes.add((rule.d, verdicts[n].reversible))
    assert outcomes == {(4, True), (4, False), (5, True), (5, False)}


# the oracle enumerates d**n configurations; stay below this many
_ORACLE_CONFIGS = 20_000


@st.composite
def _drawn_rules(draw):
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("table", "balanced", "I", "II", "III")))
    if kind == "table":
        states = st.integers(0, d - 1)
        return Rule(d, tuple(draw(st.lists(states, min_size=d ** 3, max_size=d ** 3))))
    if kind == "balanced":
        return Rule(d, tuple(draw(st.permutations([r % d for r in range(d ** 3)]))))
    return rule_at(kind, d, draw(st.integers(0, strategy_family_size(kind, d) - 1)))


@settings(max_examples=100, deadline=None)
@given(_drawn_rules())
def test_tree_matches_oracle_on_drawn_rules(rule):
    n = 3
    while rule.d ** n <= _ORACLE_CONFIGS:
        verdict = decide(rule, n)
        assert verdict.reversible == oracle_is_reversible(rule, n).bijective, (rule.table, n)
        w = verdict.witness
        if w is not None and w.kind == "edge_total":
            assert edge_label(w.node, rule, w.edge_state).total() == w.actual != w.expected
        n += 1


@st.composite
def _symmetric_images(draw):
    """A rule f, its conjugate p.f.p^-1, its output image s.f and its
    mirror f(z, y, x), with a cell count beyond the oracle's reach."""
    d = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(("balanced", "I", "II", "III")))
    if kind == "balanced":
        f = draw(st.permutations([r % d for r in range(d ** 3)]))
    else:
        f = rule_at(kind, d, draw(st.integers(0, strategy_family_size(kind, d) - 1))).table
    p = draw(st.permutations(range(d)))
    s = draw(st.permutations(range(d)))
    triples = list(itertools.product(range(d), repeat=3))
    conj = [0] * d ** 3
    for x, y, z in triples:
        conj[p[x] * d * d + p[y] * d + p[z]] = p[f[x * d * d + y * d + z]]
    mirror = [f[z * d * d + y * d + x] for x, y, z in triples]
    n = draw(st.one_of(st.integers(3, 12), st.sampled_from((10 ** 6, 10 ** 18))))
    rules = (f, conj, [s[v] for v in f], mirror)
    return tuple(Rule(d, tuple(t)) for t in rules), n


def _decide_within(rule, n):
    try:
        return decide(rule, n, node_budget=2000)
    except ResourceLimitError:
        return None


@settings(max_examples=30, deadline=None)
@given(_symmetric_images())
def test_symmetries_keep_the_verdict(images):
    (f, conj, out, mirror), n = images
    injective = infinite_injective(f).injective
    assert [infinite_injective(r).injective for r in (conj, out, mirror)] == [injective] * 3
    base, by_conj, by_out, by_mirror = [_decide_within(r, n) for r in (f, conj, out, mirror)]
    # s.f has f's nodes, so it meets the budget exactly when f does; a
    # conjugate or mirror checks its nodes in another order
    assert (base is None) == (by_out is None)
    if None in (base, by_conj, by_mirror):
        return
    assert by_mirror.reversible == base.reversible
    w = base.witness
    for v in (by_conj, by_out):
        fields = (v.reversible, v.preperiod, v.period, v.frontier_sizes)
        assert fields == (base.reversible, base.preperiod, base.period, base.frontier_sizes)
        assert (v.witness is None) == (w is None)
        if w is not None:
            assert v.witness.kind == w.kind
    # which node the ring-closing walk meets first depends on the order
    if w is not None and w.level is not None and w.level < n - 3:
        assert by_conj.witness.level == by_out.witness.level == w.level
        assert by_out.witness.node == w.node


def test_witnesses_are_pinned():
    # which node a witness names depends on the order nodes are checked
    # in; the digest pins every verdict's level, sizes and witness
    rules = [Rule(2, t) for t in itertools.product(range(2), repeat=8)]
    rules += enumerate_strategy("III", 3)
    rules += sample_strategy("I", 3, 20, seed=41)
    records = []
    for rule in rules:
        for v in decide_range(rule, 3, 12).values():
            w = v.witness
            if w is not None:
                bits = None if w.node is None else w.node.bits
                w = [w.kind, w.detail, w.level, w.edge_state, w.expected, w.actual, bits]
            records.append([v.n, v.reversible, v.preperiod, v.period, list(v.frontier_sizes), w])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "8b53b4b76e479ba0c5dd65bc108baa951f4552aa3ddef57f9955d61767ca83c4"
