"""Reversibility analysis of 1-D three-neighborhood d-state finite CAs.

The package decides whether the global map of an n-cell ring is a
bijection (via a minimized reachability tree), validates the decision
against a brute-force oracle, tests injectivity on the unbounded lattice,
and generates the three greedy families of candidate reversible rules.

The root exports only the names below: the README quickstart and the
benchmark use them. Import everything else from its module, e.g.
``from revca.evolution import step`` or ``from revca.tree import TreeNode``.
"""

from .decider import FrontierClosure, decide, decide_range
from .errors import ResourceLimitError
from .infinite import infinite_injective
from .oracle import oracle_is_reversible
from .pairs import pair_graph
from .rules import Rule, parse_rule
from .strategies import sample_strategy
from .tree import NodeClass, child, edge_label

__version__ = "0.1.0"

__all__ = [
    "FrontierClosure",
    "NodeClass",
    "ResourceLimitError",
    "Rule",
    "child",
    "decide",
    "decide_range",
    "edge_label",
    "infinite_injective",
    "oracle_is_reversible",
    "pair_graph",
    "parse_rule",
    "sample_strategy",
]
