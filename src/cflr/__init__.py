"""Context-free language reachability over edge-labeled graphs, computed
with sparse Boolean linear algebra.

Quick start::

    from cflr import preset, ensure_wcnf, load_graph, solve, VariantFlags

    g = ensure_wcnf(preset("dyck"))
    graph = load_graph("0 a 1\\n1 a 2\\n2 b 3\\n3 b 4\\n", g)
    result = solve(graph, g, VariantFlags.named("ma1"))
    print(result.matrices.pairs(g.start))
"""

from .grammar import (
    Cfg,
    GrammarError,
    Production,
    Symbol,
    WcnfGrammar,
    WcnfViolationError,
    ensure_wcnf,
    expand_indexed,
    parse_grammar,
    preset,
    PRESET_NAMES,
    serialize_grammar,
    to_wcnf,
    validate_wcnf,
)
from .graph import (
    GraphFormatError,
    LabeledGraph,
    chain_graph,
    grid_graph,
    load_graph,
    serialize_graph,
)
from .oracle import ReachTriple, oracle_solve
from .semiring import NontermMatrix, initial_matrix, scalar_mul
from .solver import (
    MatrixForest,
    SolveResult,
    SolveTimeout,
    VariantFlags,
    VARIANT_NAMES,
    forest_insert,
    solve,
)
from .sparse import BoolMat, OpCounter

__all__ = [
    "BoolMat",
    "Cfg",
    "GrammarError",
    "GraphFormatError",
    "LabeledGraph",
    "MatrixForest",
    "NontermMatrix",
    "OpCounter",
    "PRESET_NAMES",
    "Production",
    "ReachTriple",
    "SolveResult",
    "SolveTimeout",
    "Symbol",
    "VARIANT_NAMES",
    "VariantFlags",
    "WcnfGrammar",
    "WcnfViolationError",
    "chain_graph",
    "ensure_wcnf",
    "expand_indexed",
    "forest_insert",
    "grid_graph",
    "initial_matrix",
    "load_graph",
    "oracle_solve",
    "parse_grammar",
    "preset",
    "scalar_mul",
    "serialize_graph",
    "serialize_grammar",
    "solve",
    "to_wcnf",
    "validate_wcnf",
]
