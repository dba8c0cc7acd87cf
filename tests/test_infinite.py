"""Injectivity on the unbounded lattice and the finite-vs-infinite study."""

import hashlib
import itertools
import json
import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import Rule, decide, decide_range, infinite_injective, pair_graph, parse_rule
from revca.evolution import step
from revca.infinite import conjecture_experiment
from revca.pairs import is_surjective
from revca.strategies import (
    enumerate_strategy,
    random_balanced_rules,
    rule_at,
    sample_strategy,
    strategy_family_size,
)

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
    # the coordinates' cells, repeated to a ring, are two rings with one image
    copies = -(-3 // length)
    a = tuple(u1[0] for u1, _ in witness.pairs) * copies
    b = tuple(u2[0] for _, u2 in witness.pairs) * copies
    assert a != b
    assert step(rule, a) == step(rule, b) == witness.outputs * copies


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


def test_witnesses_are_pinned_at_four_to_six_states():
    rules = [rule_at("III", 4, 288044), rule_at("III", 4, 142474)]  # injective
    for d in (4, 5, 6):
        for i, strategy in enumerate(("I", "II", "III")):
            rules += sample_strategy(strategy, d, 4, seed=10 * d + i)
        rules += random_balanced_rules(d, 4, seed=10 * d + 3)
        perm = random.Random(d).sample(range(d), d)  # injective: a permuted centre cell
        rules.append(Rule(d, tuple(perm[r // d % d] for r in range(d ** 3))))
    results = [infinite_injective(rule) for rule in rules]
    assert sum(r.injective for r in results) == 5
    for rule, result in zip(rules, results):
        if result.witness is not None:
            _check_witness(rule, result.witness)
    records = [r.to_dict() for r in results]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "1dbd757d71b7045bfb1ceb9e40677a8983c199640bc2f4d9960ba175ad5c127b"


def test_every_lattice_witness_is_a_collision_that_step_confirms():
    rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
    rules += enumerate_strategy("III", 3)
    checked = 0
    for rule in rules:
        witness = infinite_injective(rule).witness
        if witness is not None:
            _check_witness(rule, witness)
            # the tree agrees: the witness collides on the n*-cell ring
            length = len(witness.pairs)
            assert not decide(rule, length * -(-3 // length)).reversible
            checked += 1
    assert checked


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
    rng = random.Random(2)
    for _ in range(10):
        d = rng.choice((2, 3))
        rule = Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3)))
        adj = pair_graph(rule)
        for (u, v), outs in adj.items():
            mirrored = {(b, a) for (a, b) in outs}
            assert mirrored == set(adj[(v, u)])


def _debruijn_product(rule):
    """The matched-output pair graph as the product of the de Bruijn graph
    with itself, keeping the edge pairs whose outputs agree."""
    d = rule.d
    f = rule.table
    windows = [(a, b) for a in range(d) for b in range(d)]
    return {
        ((a1, b1), (a2, b2)): tuple(
            ((b1, z1), (b2, z2))
            for z1 in range(d)
            for z2 in range(d)
            if f[a1 * d * d + b1 * d + z1] == f[a2 * d * d + b2 * d + z2]
        )
        for a1, b1 in windows
        for a2, b2 in windows
    }


def test_pair_graph_is_the_debruijn_product():
    rules = [Rule(2, bits) for bits in itertools.product(range(2), repeat=8)]
    rng = random.Random(5)
    for d in (3, 4, 5, 6):
        rules += [Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3))) for _ in range(3)]
        rules += sample_strategy("I", d, 2, seed=d)
    for rule in rules:
        got, want = pair_graph(rule), _debruijn_product(rule)
        assert list(got.items()) == list(want.items()), rule.table


def test_pair_graph_shape():
    rule = parse_rule("10010110", 2)
    adj = pair_graph(rule)
    assert len(adj) == 16  # ordered pairs of 4 windows
    for outs in adj.values():
        assert len(outs) <= 4


def _has_orphan(rule, length):
    """Whether some word of ``length`` cells has no preimage, a Garden-of-Eden
    word, by listing the images of all words of ``length`` + 2 cells."""
    d, table = rule.d, rule.table
    # (last two cells of a preimage as a window, its image so far)
    reached = {(w, ()) for w in range(d * d)}
    for _ in range(length):
        reached = {(w % d * d + c, image + (table[w * d + c],)) for w, image in reached for c in range(d)}
    return len({image for _, image in reached}) < d ** length


def test_surjective_iff_no_garden_of_eden_word_on_two_state_rules():
    # a rule is onto iff no finite word is an orphan; every two-state rule
    # that is not onto has one of at most 9 cells (four need all 9)
    surjective = 0
    for bits in itertools.product(range(2), repeat=8):
        rule = Rule(2, bits)
        assert is_surjective(rule) != _has_orphan(rule, 9), bits
        surjective += is_surjective(rule)
    assert surjective == 30


@st.composite
def _strategy_rules(draw):
    d = draw(st.integers(2, 5))
    strategy = draw(st.sampled_from(("I", "II", "III")))
    return rule_at(strategy, d, draw(st.integers(0, strategy_family_size(strategy, d) - 1)))


@settings(max_examples=100, deadline=None)
@given(_strategy_rules())
def test_strategy_rules_are_surjective(rule):
    # each strategy makes its rules permutive in one cell (Hedlund 1969)
    assert is_surjective(rule), rule.table


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


def test_conjecture_experiment_checks_its_arguments_up_front():
    # with no rules to decide, only the up-front checks can reject these
    with pytest.raises(ValueError, match="^state count must be in"):
        conjecture_experiment(9, [], 3, 5)
    for n_lo, n_hi in ((2, 5), (6, 5)):
        with pytest.raises(ValueError, match="^need 3 <= n_lo <= n_hi"):
            conjecture_experiment(2, [], n_lo, n_hi)
    with pytest.raises(ValueError, match="^cell count must be an integer"):
        conjecture_experiment(2, [], 3.0, 5)
    record = conjecture_experiment(numpy.int64(2), [], numpy.int64(3), 5).to_dict()
    assert json.loads(json.dumps(record)) == record
    assert [type(record[k]) for k in ("d", "n_lo", "n_hi")] == [int] * 3


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
