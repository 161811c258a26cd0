"""Shared test helpers: random instance generation, dense reference
implementations, and a naive closure for grammars of arbitrary shape.

Everything here is deliberately independent of the engine's sparse kernels
and rule plans, so tests compare two separately derived answers.
"""

from __future__ import annotations

import random

import numpy as np

from cflr.grammar import Cfg, Symbol, TERMINAL
from cflr.graph import LabeledGraph, load_graph
from cflr.solver import MatrixForest
from cflr.sparse import BoolMat, ROW


def identity(n: int) -> BoolMat:
    return BoolMat(n, n, ROW, {i: [i] for i in range(n)})


def coordinate_text(m: BoolMat) -> str:
    """Debug serialization: sorted ``row col`` lines."""
    return "\n".join(f"{i} {j}" for i, j in sorted(m.entries()))


def random_graph_text(
    g: Cfg,
    rng: random.Random,
    max_vertices: int = 30,
    max_edges: int = 120,
    max_indices: int = 4,
) -> str:
    """Random triple text over the grammar's terminal alphabet; indexed
    terminals get index tags f0..f{k-1} for a random k."""
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, max_indices)
    return sized_graph_text(g, rng, n, rng.randint(1, max_edges), k)


def sized_graph_text(g: Cfg, rng: random.Random, n: int, m: int, k: int) -> str:
    """random(n, m, k): m triples between n vertices with labels drawn
    uniformly over the grammar's terminal alphabet; an indexed terminal
    gets a uniform tag f0..f{k-1}."""
    alphabet = sorted(
        {
            (s.base, g.index_variable is not None and s.index == g.index_variable)
            for s in g.terminals
        }
    )
    lines = []
    for _ in range(m):
        base, indexed = alphabet[rng.randrange(len(alphabet))]
        label = f"{base}_f{rng.randrange(k)}" if indexed else base
        lines.append(f"{rng.randrange(n)} {label} {rng.randrange(n)}")
    return "\n".join(lines) + "\n"


def random_instance(g, rng: random.Random, **kw) -> LabeledGraph:
    return load_graph(random_graph_text(g, rng, **kw), g)


def random_boolmat(
    rng: random.Random, rows: int, cols: int, density: float = 0.2, layout: str = ROW
) -> BoolMat:
    entries = [
        (i, j) for i in range(rows) for j in range(cols) if rng.random() < density
    ]
    return BoolMat.from_entries(rows, cols, entries, layout)


def to_dense(m: BoolMat) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=bool)
    for i, j in m.entries():
        out[i, j] = True
    return out


def from_dense(a: np.ndarray, layout: str = ROW) -> BoolMat:
    entries = list(zip(*np.nonzero(a)))
    return BoolMat.from_entries(a.shape[0], a.shape[1], [(int(i), int(j)) for i, j in entries], layout)


def _diff_sorted(a: list[int], b: list[int]) -> list[int]:
    if not b:
        return list(a)
    bs = set(b)
    return [x for x in a if x not in bs]


def difference(a: BoolMat, b: BoolMat) -> BoolMat:
    """Entries of ``a`` absent from ``b``, in list form.  Layouts may
    differ.  The reference the engine's :func:`cflr.sparse.masked` is
    checked against."""
    if a.shape() != b.shape():
        raise ValueError(f"shape mismatch: {a.shape()} vs {b.shape()}")
    a = a.in_form(False)
    if not b.nnz or not a.nnz:
        return BoolMat(a.rows, a.cols, a.layout, dict(a.lines))
    out: dict[int, list[int]] = {}
    if a.layout == b.layout:
        b = b.in_form(False)
        for k, aline in a.lines.items():
            kept = _diff_sorted(aline, b.lines.get(k, []))
            if kept:
                out[k] = kept
    else:
        for k, aline in a.lines.items():
            kept = []
            for pos in aline:
                i, j = (k, pos) if a.layout == ROW else (pos, k)
                if not b.get(i, j):
                    kept.append(pos)
            if kept:
                out[k] = kept
    return BoolMat(a.rows, a.cols, a.layout, out)


def forest_difference(d: BoolMat, forest: MatrixForest) -> BoolMat:
    """d minus the forest's logical union, subtracting piece by piece,
    largest piece first."""
    for piece in forest.payloads(largest_first=True):
        d = difference(d, piece)
    return d


def triple_names(triples) -> set[tuple[str, int, int]]:
    return {(s.name(), i, j) for s, i, j in triples}


def naive_general_reach(
    graph: LabeledGraph, g: Cfg
) -> set[tuple[str, int, int]]:
    """Reachability for a grammar of arbitrary production shapes, by plain
    relational composition to a fixpoint.  Very slow; tiny graphs only."""
    n = graph.vertex_count
    tags = list(graph.index_universe)

    def concretize(p_syms, tag):
        return [
            Symbol(s.kind, s.base, tag) if (g.index_variable and s.index == g.index_variable) else s
            for s in p_syms
        ]

    prods: list[tuple[Symbol, tuple[Symbol, ...]]] = []
    for p in g.productions:
        syms = (p.lhs, *p.rhs)
        if g.index_variable and any(s.index == g.index_variable for s in syms):
            for tag in tags:
                cl, *cr = concretize(syms, tag)
                prods.append((cl, tuple(cr)))
        else:
            prods.append((p.lhs, p.rhs))

    rel: dict[Symbol, set[tuple[int, int]]] = {}
    for u, sym, v in graph.edges:
        rel.setdefault(sym, set()).add((u, v))

    def compose(body) -> set[tuple[int, int]]:
        pairs = {(i, i) for i in range(n)}
        for sym in body:
            nxt = rel.get(sym, set())
            succ: dict[int, set[int]] = {}
            for a, b in nxt:
                succ.setdefault(a, set()).add(b)
            pairs = {(i, c) for i, j in pairs for c in succ.get(j, ())}
            if not pairs:
                break
        return pairs

    changed = True
    while changed:
        changed = False
        for lhs, body in prods:
            add = compose(body)
            cur = rel.setdefault(lhs, set())
            if not add <= cur:
                cur.update(add)
                changed = True

    return {
        (s.name(), i, j)
        for s, pairs in rel.items()
        if s.kind != TERMINAL
        for i, j in pairs
    }
