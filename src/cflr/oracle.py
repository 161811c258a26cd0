"""Brute-force all-pairs reachability by worklist closure over single
facts.  Deliberately shares nothing with the matrix engine beyond the
grammar and graph types; used to verify every solver variant."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .grammar import EPSILON, NONTERMINAL, Symbol, WcnfGrammar, collector_paused, expand_indexed
from .graph import LabeledGraph


class ReachTriple(NamedTuple):
    nonterminal: Symbol
    source: int
    target: int


@collector_paused
def oracle_solve(graph: LabeledGraph, g: WcnfGrammar) -> frozenset[ReachTriple]:
    """Least fixpoint of the per-fact closure rules.

    Indexed families are first instantiated against the graph's index
    universe, so the closure itself never reasons about indices.  Intended
    for small instances (roughly |V| <= 100).  The cyclic garbage collector
    is paused while it runs, as in ``solve``, so the two compare fairly.
    """
    gx = expand_indexed(g, graph.index_universe)

    # rule indexes keyed by the symbol whose fact arrives
    by_left: dict[Symbol, list[tuple[Symbol, Symbol]]] = {}
    by_right: dict[Symbol, list[tuple[Symbol, Symbol]]] = {}
    unit_parents: dict[Symbol, list[Symbol]] = {}
    for c, x, y in gx.binary_rules:
        by_left.setdefault(x, []).append((c, y))
        by_right.setdefault(y, []).append((c, x))
    for c, s in gx.unit_rules:
        unit_parents.setdefault(s, []).append(c)

    facts: set[tuple[Symbol, int, int]] = set()
    out_by: dict[tuple[Symbol, int], list[int]] = {}
    in_by: dict[tuple[Symbol, int], list[int]] = {}
    todo: deque[tuple[Symbol, int, int]] = deque()

    def add(sym: Symbol, i: int, j: int) -> None:
        fact = (sym, i, j)
        if fact in facts:
            return
        facts.add(fact)
        out_by.setdefault((sym, i), []).append(j)
        in_by.setdefault((sym, j), []).append(i)
        todo.append(fact)

    for u, esym, v in graph.edges:
        add(esym, u, v)
        for lhs in gx.terminal_rules.get(esym, ()):
            add(lhs, u, v)
    for lhs in gx.terminal_rules.get(EPSILON, ()):
        for u in range(graph.vertex_count):
            add(lhs, u, u)

    while todo:
        sym, i, j = todo.popleft()
        for c, y in by_left.get(sym, ()):
            for k in list(out_by.get((y, j), ())):
                add(c, i, k)
        for c, x in by_right.get(sym, ()):
            for k in list(in_by.get((x, i), ())):
                add(c, k, j)
        for c in unit_parents.get(sym, ()):
            add(c, i, j)

    return frozenset(
        ReachTriple(sym, i, j) for sym, i, j in facts if sym.kind == NONTERMINAL
    )
