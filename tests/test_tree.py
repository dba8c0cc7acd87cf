"""Reachability-tree node derivation, filters, and cardinality checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import FrontierClosure, NodeClass, Rule, child, edge_label, oracle_is_reversible, parse_rule
from revca.oracle import find_nonreachable
from revca.rules import sibl_set
from revca.strategies import random_balanced_rules
from revca.tree import (
    TreeNode,
    _layout,
    expand_lanes,
    expected_edge_total,
    first_violator,
    format_node,
    label_masks,
    lane_bytes,
    node_is_balanced,
    repeat_lanes,
    ring_closing_violation,
    root,
    successors,
)

FIG2_RULE = "201012210201012210201012210"
SHIFTED_BLOCKS_RULE = "000111222000111222000111222"


def test_root_is_sibling_partition():
    node = root(3)
    assert set(node.window_set(1)) == {3, 4, 5}
    assert node.window_set(1) == (3, 4, 5)  # an ascending tuple
    assert node.total() == 27
    node2 = root(2)
    assert [set(node2.window_set(w)) for w in range(4)] == [
        {0, 1}, {2, 3}, {4, 5}, {6, 7},
    ]


def test_edge_label_collects_matching_rmts():
    rule = parse_rule(FIG2_RULE, 3)
    label = edge_label(root(3), rule, 0)
    assert label.total() == 9
    union = {r for w in range(9) for r in label.window_set(w)}
    assert union == {r for r in range(27) if rule[r] == 0}


def test_edge_label_of_constant_rule():
    rule = Rule(2, (0,) * 8)
    label = edge_label(root(2), rule, 1)
    assert label.is_empty()


def test_edge_label_rejects_rule_of_other_state_count():
    rule = parse_rule(SHIFTED_BLOCKS_RULE, 3)
    with pytest.raises(ValueError, match="2 states, rule has 3"):
        edge_label(root(2), rule, 1)


def test_edge_label_union_example_d2():
    rule = parse_rule("01011010", 2)
    label = edge_label(root(2), rule, 1)
    union = {r for w in range(4) for r in label.window_set(w)}
    assert union == {1, 3, 4, 6}


def test_labels_partition_every_window_set():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.choice((2, 3))
        rule = Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3)))
        node = root(d)
        labels = [edge_label(node, rule, m) for m in range(d)]
        for w in range(d * d):
            masks = [lab.by_window[w] for lab in labels]
            combined = 0
            for m in masks:
                assert combined & m == 0  # pairwise disjoint
                combined |= m
            assert combined == node.by_window[w]


def test_interior_child_expands_to_sibling_sets():
    label_sets = [0] * 9
    label_sets[0] = 1 << 1  # only RMT 1 in window set 0
    node = child(TreeNode.from_windows(3, label_sets), NodeClass.INTERIOR)
    assert set(node.window_set(0)) == {3, 4, 5}
    assert all(node.by_window[w] == 0 for w in range(1, 9))


def _child_by_the_paper(label, node_class, w):
    """Window set w of the child: every RMT r of the label's window set w
    adds sibling set r mod d**2, then the class filter applies."""
    d = label.d
    keep = {
        NodeClass.SECOND_LAST: lambda s: s % d == w // d,
        NodeClass.LAST: lambda s: s % (d * d) == w,
    }.get(node_class, lambda s: True)
    return {s for r in label.window_set(w) for s in sibl_set(r % (d * d), d) if keep(s)}


def _random_label(rng, d):
    # a few repeated masks, so nodes often agree on their leading windows
    pool = [0, 1 << rng.randrange(d ** 3), rng.getrandbits(d ** 3) & rng.getrandbits(d ** 3)]
    return TreeNode.from_windows(d, [rng.choice(pool) for _ in range(d * d)])


def test_child_matches_the_paper_rule_at_every_d():
    rng = random.Random(5)
    for d in range(2, 7):
        for _ in range(6):
            label = _random_label(rng, d)
            for klass in NodeClass:
                node = child(label, klass)
                for w in range(d * d):
                    assert set(node.window_set(w)) == _child_by_the_paper(label, klass, w), (d, klass, w)


def test_bits_order_is_window_order():
    rng = random.Random(6)
    for d in range(2, 7):
        nodes = [_random_label(rng, d) for _ in range(40)]
        assert sorted(nodes, key=lambda nd: nd.bits) == sorted(nodes, key=lambda nd: nd.by_window)


@st.composite
def _lanes_and_masks(draw):
    d = draw(st.integers(2, 6))
    # all-ones values put set bits in the top and bottom window fields,
    # right at the lane edges
    full = (1 << d ** 5) - 1
    values = st.one_of(st.just(full), st.integers(0, full))
    nodes = draw(st.lists(values, min_size=1, max_size=9))
    masks = draw(st.lists(values, min_size=1, max_size=d))
    return d, nodes, masks


@settings(max_examples=60, deadline=None)
@given(_lanes_and_masks())
def test_packed_lanes_equal_one_node_calls(case):
    d, nodes, masks = case
    width, lanes = lane_bytes(d), len(nodes)
    packed = int.from_bytes(b"".join(bits.to_bytes(width, "big") for bits in nodes), "big")
    alone = [successors(d, bits, masks) for bits in nodes]
    # lanes + 3 is a short chunk: masks for more lanes
    for span in (lanes, lanes + 3):
        lane_masks = [repeat_lanes(d, mask, span) for mask in masks]
        for i, out in enumerate(successors(d, packed, lane_masks)):
            raw = out.to_bytes(lanes * width, "big")
            assert [int.from_bytes(raw[j * width:(j + 1) * width], "big") for j in range(lanes)] == [
                kids[i] for kids in alone
            ]


def test_expand_lanes_crosses_the_chunk_boundary():
    rng = random.Random(12)
    for d in range(2, 7):
        width, lanes = lane_bytes(d), _layout(d).lanes
        # a full chunk, then a short one
        nodes = [rng.getrandbits(d ** 5).to_bytes(width, "big") for _ in range(lanes + 5)]
        (rule,) = random_balanced_rules(d, 1, seed=d)
        masks = (*label_masks(rule), -1)
        got, calls = [[] for _ in masks], 0
        for chunk in expand_lanes(d, nodes, masks):
            calls += 1
            for column, kids in zip(got, chunk):
                column.extend(kids)
        assert calls == 2
        alone = [successors(d, int.from_bytes(node, "big"), masks) for node in nodes]
        for i, column in enumerate(got):
            assert [int.from_bytes(lane, "big") for lane in column] == [kids[i] for kids in alone]


def _shift_rule(d):
    """f(x, y, z) = x: reversible at every n, so no edge label fails."""
    return Rule(d, tuple(r // (d * d) for r in range(d ** 3)))


def _frontier_lanes(rule, levels):
    closure = FrontierClosure(rule)
    nodes = {node for level in levels for node in closure.frontier_at(level)}
    return [node.bits.to_bytes(lane_bytes(rule.d), "big") for node in nodes]


def test_first_violator_matches_a_per_lane_walk():
    rng = random.Random(21)
    for d in range(2, 6):
        shift = _shift_rule(d)
        assert first_violator(_frontier_lanes(shift, range(4)), label_masks(shift)) is None
        for rule in random_balanced_rules(d, 3, seed=20 + d):
            drawn = [rng.getrandbits(d ** 5).to_bytes(lane_bytes(d), "big") for _ in range(3)]
            nodes = list(dict.fromkeys(_frontier_lanes(rule, range(4)) + drawn))
            rng.shuffle(nodes)
            want = expected_edge_total(0, 3, d)
            first = None
            for lane in sorted(nodes):
                node = TreeNode(d, int.from_bytes(lane, "big"))
                counts = [edge_label(node, rule, m).total() for m in range(d)]
                bad = [m for m in range(d) if counts[m] != want]
                if bad:
                    first = (sorted(nodes).index(lane) + 1, bad[0], want, counts[bad[0]], node.bits)
                    break
            assert first is not None
            assert first_violator(nodes, label_masks(rule)) == first


def _ring_closing_walk(rule, frontier):
    """The first failed label of the last three edge levels, node by node
    in bits order, depth first, each distinct child once per offset."""
    d = rule.d
    classes = (NodeClass.SECOND_LAST, NodeClass.LAST)
    seen = (set(), set())

    def walk(node, offset):
        want = expected_edge_total(offset, 3, d)
        for m in range(d):
            label = edge_label(node, rule, m)
            if label.total() != want:
                return offset, m, want, label.total(), node.bits
            if offset == 2:
                continue
            nxt = child(label, classes[offset])
            if nxt in seen[offset]:
                continue
            seen[offset].add(nxt)
            found = walk(nxt, offset + 1)
            if found is not None:
                return found
        return None

    for node in sorted(frontier, key=lambda node: node.bits):
        found = walk(node, 0)
        if found is not None:
            return found
    return None


def test_ring_closing_violation_matches_a_node_walk():
    outcomes = set()
    for d in range(2, 6):
        rules = [_shift_rule(d), *random_balanced_rules(d, 3, seed=30 + d)]
        if d == 3:
            rules.append(parse_rule("102221010102221010102221010", 3))  # reversible at odd n
        for rule in rules:
            closure = FrontierClosure(rule)
            for level in range(5):
                frontier = closure.frontier_at(level)
                lanes = [node.bits.to_bytes(lane_bytes(d), "big") for node in frontier]
                got = ring_closing_violation(d, label_masks(rule), lanes)
                assert got == _ring_closing_walk(rule, frontier)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_empty_label_gives_empty_child():
    rule = Rule(2, (0,) * 8)
    label = edge_label(root(2), rule, 1)
    for klass in NodeClass:
        assert child(label, klass).is_empty()


def test_fig2_second_last_filter_golden():
    # 4-cell ring: level 2 carries the first ring-closing filter. The
    # canonical trace follows edges 0 then 1 from the root.
    rule = parse_rule(FIG2_RULE, 3)
    level1 = child(edge_label(root(3), rule, 0), NodeClass.INTERIOR)
    level2 = child(edge_label(level1, rule, 1), NodeClass.SECOND_LAST)
    assert format_node(level2) == "[3][18][12][4][19][13][5][20][14]"
    assert set(level2.window_set(1)) == {18}
    # without the filter the same expansion would include 19 and 20
    unfiltered = child(edge_label(level1, rule, 1), NodeClass.INTERIOR)
    assert set(unfiltered.window_set(1)) == {18, 19, 20}


def test_fig2_last_filter_golden():
    rule = parse_rule(FIG2_RULE, 3)
    level1 = child(edge_label(root(3), rule, 0), NodeClass.INTERIOR)
    level2 = child(edge_label(level1, rule, 1), NodeClass.SECOND_LAST)
    level3 = child(edge_label(level2, rule, 0), NodeClass.LAST)
    assert format_node(level3) == "[][1][][][][][15][][17]"
    assert set(level3.window_set(1)) == {1}


def test_sibling_closure_of_interior_nodes():
    rng = random.Random(21)
    for _ in range(30):
        d = rng.choice((2, 3))
        rule = Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3)))
        node = root(d)
        for _ in range(3):
            m = rng.randrange(d)
            node = child(edge_label(node, rule, m), NodeClass.INTERIOR)
            for w in range(d * d):
                got = node.by_window[w]
                for j in range(d * d):
                    sib = sum(1 << r for r in sibl_set(j, d))
                    assert got & sib in (0, sib)


def test_node_balance():
    balanced = parse_rule(FIG2_RULE, 3)
    assert node_is_balanced(root(3), balanced)
    unbalanced = parse_rule("000111222000111222000111220", 3)
    assert not node_is_balanced(root(3), unbalanced)
    block_rule = parse_rule("222111000222111000222111000", 3)
    for m in range(3):
        level1 = child(edge_label(root(3), block_rule, m), NodeClass.INTERIOR)
        assert node_is_balanced(level1, block_rule)


def test_expected_edge_total_by_level():
    assert expected_edge_total(0, 6, 3) == 9
    assert expected_edge_total(3, 6, 3) == 9
    assert expected_edge_total(4, 6, 3) == 3
    assert expected_edge_total(5, 6, 3) == 1
    with pytest.raises(ValueError):
        expected_edge_total(6, 6, 3)
    with pytest.raises(ValueError):
        expected_edge_total(0, 2, 3)


def test_check_edge_cardinality_interior():
    rule = parse_rule("222222222111111111000000000", 3)
    node = root(3)
    for _ in range(3):  # a few interior levels, any edge state
        label = edge_label(node, rule, 0)
        assert label.total() == expected_edge_total(0, 10, 3)
        assert label.total() == 9
        node = child(label, NodeClass.INTERIOR)


def test_check_edge_cardinality_violation():
    # the Fig. 2 ring of 4 cells: first child chain reaches a level-3 node
    # whose state-1 edge is empty (a non-reachable leaf)
    rule = parse_rule(FIG2_RULE, 3)
    node = root(3)
    for klass in (NodeClass.INTERIOR, NodeClass.SECOND_LAST, NodeClass.LAST):
        node = child(edge_label(node, rule, 0), klass)
    label = edge_label(node, rule, 1)
    actual, expected = label.total(), expected_edge_total(3, 4, 3)
    assert actual != expected
    assert actual == 0
    assert expected == 1


def test_leaf_edges_of_reversible_ca_carry_one_rmt():
    rule = parse_rule("222222222111111111000000000", 3)
    n = 4
    node = root(3)
    for level, klass in ((1, NodeClass.INTERIOR), (2, NodeClass.SECOND_LAST), (3, NodeClass.LAST)):
        label = edge_label(node, rule, 1)
        assert label.total() == expected_edge_total(level - 1, n, 3)
        node = child(label, klass)
    for m in range(3):
        assert edge_label(node, rule, m).total() == expected_edge_total(3, n, 3)


def _reachable_by_tree(rule, n):
    """Output configurations whose leaf node is nonempty."""
    d = rule.d
    found = set()

    def klass_for(level):
        if level == n - 2:
            return NodeClass.SECOND_LAST
        if level == n - 1:
            return NodeClass.LAST
        if level == n:
            return NodeClass.LEAF
        return NodeClass.INTERIOR

    def walk(node, level, prefix):
        if level == n:
            if not node.is_empty():
                found.add(prefix)
            return
        for m in range(d):
            label = edge_label(node, rule, m)
            if label.is_empty():
                continue
            walk(child(label, klass_for(level + 1)), level + 1, prefix + (m,))

    walk(root(d), 0, ())
    return found


def _reachable_by_oracle(rule, n):
    import numpy as np

    from revca.oracle import _preimage_counts

    counts = _preimage_counts(rule, n, None)
    reachable = set()
    for u in np.flatnonzero(counts > 0).tolist():
        cells = []
        for _ in range(n):
            cells.append(u % rule.d)
            u //= rule.d
        reachable.add(tuple(reversed(cells)))
    return reachable


def test_tree_paths_equal_oracle_image():
    rng = random.Random(3)
    rules = [
        parse_rule("10010110", 2),  # three-cell sum mod 2
        parse_rule("11110000", 2),  # identity
        parse_rule("01011010", 2),
        Rule(2, tuple(rng.randrange(2) for _ in range(8))),
        Rule(2, tuple(rng.randrange(2) for _ in range(8))),
    ]
    for rule in rules:
        for n in (5, 8):
            assert _reachable_by_tree(rule, n) == _reachable_by_oracle(rule, n)
    assert _reachable_by_tree(parse_rule("10010110", 2), 10) == _reachable_by_oracle(
        parse_rule("10010110", 2), 10
    )
    d3 = parse_rule(FIG2_RULE, 3)
    assert _reachable_by_tree(d3, 4) == _reachable_by_oracle(d3, 4)


def test_nonreachable_configs_match_tree(capsys):
    rule = parse_rule(FIG2_RULE, 3)
    missing = set(find_nonreachable(rule, 4))
    assert missing
    assert missing == set(
        tuple((u // 3 ** (3 - i)) % 3 for i in range(4)) for u in range(81)
    ) - _reachable_by_tree(rule, 4)
    assert not oracle_is_reversible(rule, 4).bijective
