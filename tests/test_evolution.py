"""Global map evaluation, de Bruijn graph, and orbits."""

import random

import pytest

from revca import Rule, parse_rule
from revca.errors import RuleFormatError
from revca.evolution import (
    build_debruijn,
    export_dot,
    format_configuration,
    orbit,
    parse_configuration,
    step,
    step_on_graph,
)

FIG1_RULE = "201210210201210210201210210"


def identity_rule(d):
    """First-coordinate projection: out[i] == c[i] under window alignment."""
    return Rule(d, tuple(r // (d * d) for r in range(d ** 3)))


def test_walk_example():
    rule = parse_rule(FIG1_RULE, 3)
    cells = parse_configuration("1012", 3)
    assert format_configuration(step(rule, cells)) == "1200"
    assert format_configuration(step_on_graph(build_debruijn(rule), cells)) == "1200"


def test_identity_rule_fixes_everything():
    rule = identity_rule(3)
    for text in ("1012", "00210", "222"):
        cells = parse_configuration(text, 3)
        assert step(rule, cells) == cells


def test_negated_shift_by_two():
    # f(x,y,z) = 1 - z, so the output is the complemented left-rotation by 2
    rule = parse_rule("01010101", 2)
    cells = parse_configuration("0001", 2)
    assert format_configuration(step(rule, cells)) == "1011"


def test_walk_equals_direct_formula():
    rng = random.Random(12345)
    graphs = {}
    for _ in range(1000):
        d = rng.choice((2, 3, 4))
        rule = Rule(d, tuple(rng.randrange(d) for _ in range(d ** 3)))
        n = rng.randrange(3, 11)
        cells = tuple(rng.randrange(d) for _ in range(n))
        graph = graphs.get(rule)
        if graph is None:
            graph = graphs.setdefault(rule, build_debruijn(rule))
        assert step(rule, cells) == step_on_graph(graph, cells)


def test_debruijn_shape():
    g3 = build_debruijn(parse_rule(FIG1_RULE, 3))
    assert len(g3.vertices) == 9
    assert len(g3.edges) == 27
    g2 = build_debruijn(identity_rule(2))
    assert len(g2.vertices) == 4
    assert len(g2.edges) == 8


def test_debruijn_edge_outputs():
    g = build_debruijn(parse_rule(FIG1_RULE, 3))
    assert g.edge_for_rmt(0).output == 0  # f(0,0,0)
    assert g.edge_for_rmt(1).output == 1  # f(0,0,1)
    assert g.edge_for_rmt(19).output == 1  # f(2,0,1)


def test_debruijn_degrees():
    for d in (2, 3, 4):
        g = build_debruijn(identity_rule(d))
        indeg = {v: 0 for v in g.vertices}
        outdeg = {v: 0 for v in g.vertices}
        for e in g.edges:
            outdeg[e.src] += 1
            indeg[e.dst] += 1
        assert set(indeg.values()) == {d}
        assert set(outdeg.values()) == {d}


def test_orbit_identity_repeats_immediately():
    rule = identity_rule(2)
    result = orbit(rule, (0, 1, 1, 0), 10)
    assert result.repeat_at == 1
    assert result.cycle_start == 0


def test_orbit_of_reversible_rule_has_no_tail():
    rule = parse_rule(FIG1_RULE, 3)
    for u in range(81):
        cells = tuple((u // 3 ** (3 - i)) % 3 for i in range(4))
        result = orbit(rule, cells, 100)
        assert result.cycle_start == 0
        assert result.states[result.repeat_at] == cells


def test_orbit_reaching_fixed_point():
    rule = Rule(2, (0,) * 8)
    result = orbit(rule, (0, 1, 0, 1), 10)
    assert result.states[1] == (0, 0, 0, 0)
    assert result.cycle_start == 1
    assert result.repeat_at == 2


def test_step_is_bijection_for_reversible_rule():
    rule = parse_rule(FIG1_RULE, 3)
    images = set()
    for u in range(81):
        cells = tuple((u // 3 ** (3 - i)) % 3 for i in range(4))
        images.add(step(rule, cells))
    assert len(images) == 81


def test_step_validates_input():
    rule = identity_rule(2)
    with pytest.raises(ValueError):
        step(rule, (0, 1))
    with pytest.raises(ValueError):
        step(rule, (0, 1, 2))


def test_export_dot():
    text = export_dot(build_debruijn(parse_rule("11001100", 2)))
    assert text.count("->") == 8
    assert '"01" -> "10" [label="010/1"];' in text
    fig1 = export_dot(build_debruijn(parse_rule(FIG1_RULE, 3)))
    assert '[label="201/1"]' in fig1
    assert fig1.count("->") == 27


def test_configuration_parsing():
    assert parse_configuration("1,0,1,2", 3) == (1, 0, 1, 2)
    with pytest.raises(ValueError):
        parse_configuration("10", 2)
    with pytest.raises(ValueError):
        parse_configuration("012", 2)
    with pytest.raises(RuleFormatError) as err:
        parse_configuration("0,-1,2", 3)
    assert err.value.position == 1
    assert parse_configuration("0,+1,2", 3) == (0, 1, 2)
    for text in ("0\u06612", "0\uff112", "0\u00b22", "0,1_0,2", "0,\u0661,2"):
        with pytest.raises(RuleFormatError) as err:
            parse_configuration(text, 3)
        assert err.value.position == 1
