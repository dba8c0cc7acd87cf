"""Reversibility analysis of 1-D three-neighborhood d-state finite CAs.

The package decides whether the global map of an n-cell ring is a
bijection (via a minimized reachability tree), validates the decision
against a brute-force oracle, tests injectivity on the unbounded lattice,
and generates the three greedy families of candidate reversible rules.
"""

from .decider import (
    FrontierClosure,
    Verdict,
    Witness,
    decide,
    decide_range,
    frontier_closure,
)
from .errors import ResourceLimitError, RuleFormatError
from .evolution import (
    Configuration,
    DeBruijnEdge,
    DeBruijnGraph,
    OrbitResult,
    build_debruijn,
    export_dot,
    format_configuration,
    orbit,
    parse_configuration,
    step,
    step_on_graph,
)
from .infinite import (
    ConjectureReport,
    InjectivityResult,
    InjectivityWitness,
    conjecture_experiment,
    infinite_injective,
    pair_graph,
)
from .oracle import GlobalMapSummary, find_nonreachable, oracle_is_reversible
from .rules import (
    MAX_STATES,
    Rule,
    equi_set,
    format_rule,
    is_balanced,
    parse_rule,
    rmt_decompose,
    rmt_index,
    sibl_set,
    validate_state_count,
)
from .strategies import (
    STRATEGIES,
    count_balanced,
    enumerate_strategy,
    random_balanced_rules,
    rule_at,
    sample_strategy,
    strategy_family_size,
    strategy_index_of,
)
from .tree import (
    NodeClass,
    TreeNode,
    child,
    edge_label,
    expected_edge_total,
    format_node,
    node_is_balanced,
    root,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_STATES",
    "STRATEGIES",
    "Configuration",
    "ConjectureReport",
    "DeBruijnEdge",
    "DeBruijnGraph",
    "FrontierClosure",
    "GlobalMapSummary",
    "InjectivityResult",
    "InjectivityWitness",
    "NodeClass",
    "OrbitResult",
    "ResourceLimitError",
    "Rule",
    "RuleFormatError",
    "TreeNode",
    "Verdict",
    "Witness",
    "build_debruijn",
    "child",
    "conjecture_experiment",
    "count_balanced",
    "decide",
    "decide_range",
    "edge_label",
    "enumerate_strategy",
    "equi_set",
    "expected_edge_total",
    "export_dot",
    "find_nonreachable",
    "format_configuration",
    "format_node",
    "format_rule",
    "frontier_closure",
    "infinite_injective",
    "is_balanced",
    "node_is_balanced",
    "oracle_is_reversible",
    "orbit",
    "pair_graph",
    "parse_configuration",
    "parse_rule",
    "random_balanced_rules",
    "rmt_decompose",
    "rmt_index",
    "root",
    "rule_at",
    "sample_strategy",
    "step",
    "step_on_graph",
    "strategy_family_size",
    "strategy_index_of",
    "sibl_set",
    "validate_state_count",
]
