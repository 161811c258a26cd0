"""Shared test helpers: random instance generation, dense reference
implementations, a naive closure for grammars of arbitrary shape, the
entry-by-entry forms of the engine's seeds and block moves, the forest
insert as first written (``sort_and_scan_insert``), and the reference
algebra over symbol-matrix collections (``semiring_matmul``,
``apply_unit_rules``).

The instance generators, dense references and the naive closure are
deliberately independent of the engine's sparse kernels and rule plans, so
tests compare two separately derived answers.  The reference algebra is
built from those kernels and plans, one product per rule, so the solver's
iteration can be checked against it.
"""

from __future__ import annotations

import random

import numpy as np

from cflr import sparse
from cflr.grammar import EPSILON, Cfg, Symbol, TERMINAL, WcnfGrammar
from cflr.graph import LabeledGraph, load_graph
from cflr.semiring import (
    HBLOCK,
    PLAIN,
    VBLOCK,
    MatKey,
    NontermMatrix,
    _apply_transform,
    build_rule_plan,
    matrix_dims,
)
from cflr.solver import MatrixForest
from cflr.sparse import Accumulator, BoolMat, OpCounter, ROW, _remap


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
    """d minus the forest's logical union, subtracting piece by piece."""
    for piece in forest.payloads():
        d = difference(d, piece)
    return d


def sort_and_scan_insert(forest: MatrixForest, payload, counter: OpCounter | None = None) -> None:
    """The forest insert as first written, the reference for
    :meth:`MatrixForest.insert`: sort every piece and the new one stably
    by size, then merge the first adjacent pair within a factor b of each
    other, re-sort and scan again from the smallest piece, until no pair
    is left."""
    if not payload.nnz:
        return
    els = sorted(forest.elements + [payload], key=lambda el: el.nnz)
    while True:
        hit = next(
            (i for i in range(len(els) - 1) if forest.b * els[i].nnz >= els[i + 1].nnz),
            None,
        )
        if hit is None:
            break
        els[hit : hit + 2] = [forest.combine(els[hit], els[hit + 1], counter)]
        els.sort(key=lambda el: el.nnz)
    forest.elements = els


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


# ---------------------------------------------------------------------------
# entry-by-entry references for the engine's line-by-line set-up (block
# moves as calls of the engine's own per-entry ``_remap``), and the
# reference algebra over whole symbol-matrix collections


def block_offset(a: BoolMat, slot: int, universe: int, side: str) -> BoolMat:
    """Place a square matrix into block ``slot`` of a 1 x k (horizontal) or
    k x 1 (vertical) block matrix over a ``universe`` of k index slots."""
    if a.rows != a.cols:
        raise ValueError("block_offset expects a square matrix")
    if not (0 <= slot < universe):
        raise ValueError(f"slot {slot} out of range for universe {universe}")
    n = a.rows
    off = slot * n
    if side == "horizontal":
        return _remap(a, n, universe * n, lambda i, j: (i, j + off))
    if side == "vertical":
        return _remap(a, universe * n, n, lambda i, j: (i + off, j))
    raise ValueError(f"unknown side {side!r}")


def vertical_to_horizontal(v: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Inverse of :func:`cflr.sparse.horizontal_to_vertical`."""
    n = block_size
    if v.rows != universe * n or v.cols != n:
        raise ValueError(f"expected {universe * n}x{n} vertical blocks, got {v.shape()}")
    return _remap(v, n, universe * n, lambda i, j: (i % n, (i // n) * n + j))


def remapped_block_moves(n: int, k: int):
    """The engine's three block moves as ``_remap`` calls, keyed by name:
    (rows, cols, move) of each."""
    return {
        "block_diagonalize": (k * n, k * n, lambda i, j: (i, (i // n) * n + j)),
        "block_collapse": (n, n, lambda i, j: (i, j % n)),
        "horizontal_to_vertical": (k * n, n, lambda i, j: ((j // n) * n + i, j % n)),
    }


def initial_matrix_by_edge(
    graph: LabeledGraph, g: WcnfGrammar, indexed_blocks: bool = False
) -> NontermMatrix:
    """The seeds, edge by edge: the reference :func:`cflr.semiring.initial_matrix`
    is checked against."""
    n = graph.vertex_count
    universe = graph.index_universe if indexed_blocks and g.is_indexed else ()
    slot = {tag: at for at, tag in enumerate(universe)}
    k = len(universe)

    entries: dict[MatKey, list[tuple[int, int]]] = {}

    def put(sym: Symbol, repr_: str, i: int, j: int) -> None:
        entries.setdefault((sym, repr_), []).append((i, j))

    operand_terms = {
        s for _, x, y in g.binary_rules for s in (x, y) if s.kind == TERMINAL
    }

    indexed_term_bases = g.indexed_terminal_bases() if indexed_blocks else frozenset()

    for u, esym, v in graph.edges:
        if esym.index is not None and esym.base in indexed_term_bases:
            gterm = Symbol(TERMINAL, esym.base, g.index_variable)
            t = slot[esym.index]
            for lhs in g.terminal_rules.get(gterm, ()):
                if g.is_indexed_symbol(lhs):
                    put(lhs, HBLOCK, u, t * n + v)
                else:
                    put(lhs, PLAIN, u, v)
            if gterm in operand_terms:
                put(gterm, HBLOCK, u, t * n + v)
        else:
            for lhs in g.terminal_rules.get(esym, ()):
                put(lhs, PLAIN, u, v)
            if esym in operand_terms:
                put(esym, PLAIN, u, v)

    for lhs in g.terminal_rules.get(EPSILON, ()):
        if indexed_blocks and g.is_indexed_symbol(lhs):
            for t in range(k):
                for u in range(n):
                    put(lhs, HBLOCK, u, t * n + u)
        else:
            for u in range(n):
                put(lhs, PLAIN, u, u)

    mats: dict[MatKey, BoolMat] = {}
    for (sym, repr_), ents in entries.items():
        mats[(sym, repr_)] = BoolMat.from_entries(*matrix_dims(repr_, n, k), ents)
    return NontermMatrix(n, universe, mats)


def cell(m: NontermMatrix, i: int, j: int) -> frozenset[Symbol]:
    """The symbol set at logical position (i, j) of ``m``."""
    out = []
    n = m.size
    for (sym, repr_), mat in m.mats.items():
        if repr_ == PLAIN:
            if mat.get(i, j):
                out.append(sym)
        elif repr_ == HBLOCK:
            for t, tag in enumerate(m.universe):
                if mat.get(i, t * n + j):
                    out.append(Symbol(sym.kind, sym.base, tag))
    return frozenset(out)


def total_nnz(m: NontermMatrix) -> int:
    return sum(mat.nnz for (sym, r), mat in m.mats.items() if r != VBLOCK)


def _accumulator(accs: dict[MatKey, Accumulator], key: MatKey, n: int, k: int) -> Accumulator:
    """The accumulator of ``key``'s symbol in its canonical representation,
    where vertical family blocks land in the horizontal one."""
    key = (key[0], HBLOCK if key[1] == VBLOCK else key[1])
    if key not in accs:
        accs[key] = Accumulator(*matrix_dims(key[1], n, k))
    return accs[key]


def semiring_matmul(
    left: NontermMatrix,
    right: NontermMatrix,
    g: WcnfGrammar,
    indexed_blocks: bool = False,
    counter: OpCounter | None = None,
) -> NontermMatrix:
    """The algebra's matrix product: one Boolean product per binary rule
    (per rule family with ``indexed_blocks``), gathered per result symbol.
    Unit rules are not part of the product."""
    if (left.size, left.universe) != (right.size, right.universe):
        raise ValueError("operand collections disagree on shape")
    n, k = left.size, left.k
    plan = build_rule_plan(g, indexed_blocks)
    accs: dict[MatKey, Accumulator] = {}
    for step in plan.bin_steps:
        lmat = _apply_transform(left.fetch(step.left), step.left_transform, n, k)
        rmat = _apply_transform(right.fetch(step.right), step.right_transform, n, k)
        acc = _accumulator(accs, step.result, n, k)
        sparse.spgemm(lmat, rmat, counter, into=acc)
    mats = {key: sparse.masked(acc, (), counter) for key, acc in accs.items()}
    return NontermMatrix(n, left.universe, mats)


def apply_unit_rules(
    source: NontermMatrix,
    g: WcnfGrammar,
    indexed_blocks: bool = False,
    counter: OpCounter | None = None,
) -> NontermMatrix:
    """Entries contributed by unit rules when their sources hold
    ``source``'s entries."""
    n, k = source.size, source.k
    plan = build_rule_plan(g, indexed_blocks)
    accs: dict[MatKey, Accumulator] = {}
    for step in plan.unit_steps:
        piece = _apply_transform(source.fetch(step.source), step.transform, n, k)
        _accumulator(accs, step.result, n, k).add(piece)
    mats = {key: sparse.masked(acc, (), counter) for key, acc in accs.items()}
    return NontermMatrix(n, source.universe, mats)
