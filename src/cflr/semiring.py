"""The reachability algebra over per-nonterminal Boolean matrices.

A value of the algebra is a set of grammar symbols; addition is set union
and multiplication combines two sets through the binary productions.  A
matrix over this algebra is stored as one Boolean matrix per symbol, and
its product decomposes into one Boolean product per binary production.

Indexed symbol families are stored as block matrices over the index
universe of size k: a horizontal |V| x k|V| block row and/or a vertical
k|V| x |V| block column, so one Boolean product covers a whole family of
productions at once.  Five execution shapes cover every accepted rule:

  plain    c   -> x   y      plain  = plain . plain
  paired   c   -> x_i y_i    plain  = H[x] . V[y]
  keep-r   c_i -> x   y_i    H[c]   = plain . H[y]
  keep-l   c_i -> x_i y      V[c]   = V[x] . plain
  locked   c_i -> x_i y_i    V[c]   = diag(V[x]) . V[y]
  drop     c   -> x_i y      plain  = collapse(x) . plain   (and mirrored)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import sparse
from .grammar import EPSILON, NONTERMINAL, TERMINAL, Symbol, WcnfGrammar
from .graph import LabeledGraph
from .sparse import Accumulator, BoolMat, OpCounter

PLAIN = "plain"
HBLOCK = "h"
VBLOCK = "v"

MatKey = tuple[Symbol, str]


def matrix_dims(repr_: str, n: int, k: int) -> tuple[int, int]:
    """Shape of a symbol's matrix over n vertices and k index slots: n x n
    plain, n x k*n horizontal blocks, k*n x n vertical blocks."""
    if repr_ == PLAIN:
        return (n, n)
    if repr_ == HBLOCK:
        return (n, k * n)
    return (k * n, n)


def scalar_mul(
    a: Iterable[Symbol], b: Iterable[Symbol], g: WcnfGrammar
) -> frozenset[Symbol]:
    """Multiply two symbol sets: every lhs whose binary rule draws its left
    operand from ``a`` and its right operand from ``b``."""
    aset, bset = set(a), set(b)
    return frozenset(c for c, x, y in g.binary_rules if x in aset and y in bset)


# ---------------------------------------------------------------------------
# rule plans


@dataclass(frozen=True)
class BinStep:
    """One Boolean product realizing one binary production (family)."""

    result: MatKey
    left: MatKey
    right: MatKey
    left_transform: str | None = None  # "diag" | "collapse"
    right_transform: str | None = None  # "collapse"


@dataclass(frozen=True)
class UnitStep:
    """Entry propagation for a unit production ``c -> B``."""

    result: MatKey
    source: MatKey
    transform: str | None = None  # "collapse"


@dataclass(frozen=True)
class RulePlan:
    bin_steps: tuple[BinStep, ...]
    unit_steps: tuple[UnitStep, ...]


def build_rule_plan(g: WcnfGrammar, indexed_blocks: bool = False) -> RulePlan:
    """Compile the grammar's binary and unit rules into executable steps.

    Without ``indexed_blocks`` the grammar must already be index-free
    (expanded); every step is then a plain product.
    """

    def is_ix(s: Symbol) -> bool:
        return indexed_blocks and g.is_indexed_symbol(s)

    bins: list[BinStep] = []
    for c, x, y in g.binary_rules:
        ic, il, ir = is_ix(c), is_ix(x), is_ix(y)
        if not ic and not il and not ir:
            bins.append(BinStep((c, PLAIN), (x, PLAIN), (y, PLAIN)))
        elif not ic and il and ir:
            bins.append(BinStep((c, PLAIN), (x, HBLOCK), (y, VBLOCK)))
        elif ic and not il and ir:
            bins.append(BinStep((c, HBLOCK), (x, PLAIN), (y, HBLOCK)))
        elif ic and il and not ir:
            bins.append(BinStep((c, VBLOCK), (x, VBLOCK), (y, PLAIN)))
        elif ic and il and ir:
            bins.append(
                BinStep((c, VBLOCK), (x, VBLOCK), (y, VBLOCK), left_transform="diag")
            )
        elif not ic and il and not ir:
            bins.append(
                BinStep((c, PLAIN), (x, HBLOCK), (y, PLAIN), left_transform="collapse")
            )
        else:  # not ic and not il and ir
            bins.append(
                BinStep((c, PLAIN), (x, PLAIN), (y, HBLOCK), right_transform="collapse")
            )

    units: list[UnitStep] = []
    for c, s in g.unit_rules:
        ic, isrc = is_ix(c), is_ix(s)
        if ic and isrc:
            units.append(UnitStep((c, HBLOCK), (s, HBLOCK)))
        elif not ic and isrc:
            units.append(UnitStep((c, PLAIN), (s, HBLOCK), transform="collapse"))
        else:
            units.append(UnitStep((c, PLAIN), (s, PLAIN)))

    return RulePlan(tuple(bins), tuple(units))


def stored_symbols(g: WcnfGrammar) -> tuple[Symbol, ...]:
    """Every symbol that owns a matrix: all nonterminals plus terminals
    consumed as binary-rule operands (their matrices are constant)."""
    out: dict[Symbol, None] = {}
    for s in sorted(g.nonterminals, key=lambda s: (s.base, s.index or "")):
        out[s] = None
    for _, x, y in g.binary_rules:
        for s in (x, y):
            if s.kind == TERMINAL:
                out.setdefault(s, None)
    return tuple(out)


# ---------------------------------------------------------------------------
# symbol-indexed matrix collections


class NontermMatrix:
    """One Boolean matrix per symbol, all row-major.

    Plain symbols use key ``(sym, "plain")`` with a |V| x |V| matrix; an
    indexed family uses ``(sym, "h")`` with its horizontal |V| x k|V|
    block row (the canonical family form; the vertical form is derived
    on demand).
    """

    def __init__(self, size: int, universe: tuple[str, ...], mats: dict[MatKey, BoolMat]):
        self.size = size
        self.universe = tuple(universe)
        self.mats = mats

    @property
    def k(self) -> int:
        return len(self.universe)

    def dims(self, repr_: str) -> tuple[int, int]:
        return matrix_dims(repr_, self.size, self.k)

    def fetch(self, key: MatKey) -> BoolMat:
        """Matrix for ``key``, deriving the vertical block form from the
        stored horizontal one when asked for it."""
        sym, repr_ = key
        m = self.mats.get(key)
        if m is not None:
            return m
        if repr_ == VBLOCK:
            h = self.mats.get((sym, HBLOCK))
            if h is not None:
                return sparse.horizontal_to_vertical(h, self.size, self.k)
        return BoolMat.empty(*self.dims(repr_))

    def cell(self, i: int, j: int) -> frozenset[Symbol]:
        """The symbol set at logical position (i, j)."""
        out = []
        n = self.size
        for (sym, repr_), m in self.mats.items():
            if repr_ == PLAIN:
                if m.get(i, j):
                    out.append(sym)
            elif repr_ == HBLOCK:
                for t, tag in enumerate(self.universe):
                    if m.get(i, t * n + j):
                        out.append(Symbol(sym.kind, sym.base, tag))
        return frozenset(out)

    def pairs(self, sym: Symbol) -> list[tuple[int, int]]:
        """Sorted (source, target) pairs for a plain or concrete-indexed
        symbol."""
        m = self.mats.get((sym, PLAIN))
        if m is not None:
            return sorted(m.entries())
        if sym.index is not None and sym.index in self.universe:
            fam = next(
                (s for (s, r) in self.mats if r == HBLOCK and s.base == sym.base), None
            )
            if fam is not None:
                t, n = self.universe.index(sym.index), self.size
                h = self.mats[(fam, HBLOCK)]
                return sorted(
                    (i, j - t * n) for i, j in h.entries() if t * n <= j < (t + 1) * n
                )
        return []

    def to_triples(self) -> frozenset[tuple[Symbol, int, int]]:
        """All (nonterminal, source, target) facts, indexed families
        decoded into concrete per-index symbols."""
        n = self.size
        out: set[tuple[Symbol, int, int]] = set()
        for (sym, repr_), m in self.mats.items():
            if sym.kind != NONTERMINAL:
                continue
            if repr_ == PLAIN:
                out.update((sym, i, j) for i, j in m.entries())
            elif repr_ == HBLOCK:
                for i, j in m.entries():
                    t, jj = divmod(j, n)
                    out.add((Symbol(sym.kind, sym.base, self.universe[t]), i, jj))
        return frozenset(out)

    def total_nnz(self) -> int:
        return sum(m.nnz for (sym, r), m in self.mats.items() if r != VBLOCK)

    def union(self, other: "NontermMatrix", counter: OpCounter | None = None) -> "NontermMatrix":
        if (self.size, self.universe) != (other.size, other.universe):
            raise ValueError("matrix collections disagree on shape")
        keys = list(dict.fromkeys([*self.mats, *other.mats]))
        mats = {}
        for key in keys:
            a, b = self.mats.get(key), other.mats.get(key)
            if a is None:
                mats[key] = b
            elif b is None:
                mats[key] = a
            else:
                mats[key] = sparse.union(a, b, counter)
        return NontermMatrix(self.size, self.universe, mats)

    def logical_eq(self, other: "NontermMatrix") -> bool:
        return self.to_triples() == other.to_triples()


def initial_matrix(
    graph: LabeledGraph, g: WcnfGrammar, indexed_blocks: bool = False
) -> NontermMatrix:
    """Seed matrices from the graph: one entry per edge for every terminal
    rule (block slot entries for indexed terminals), full diagonals for
    epsilon rules, and the constant adjacency of every terminal consumed
    by a binary rule."""
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


def _apply_transform(m: BoolMat, transform: str | None, n: int, k: int) -> BoolMat:
    """``m`` as a step reads it: as it is, on the block diagonal, or with
    its index blocks collapsed."""
    if transform is None:
        return m
    if transform == "diag":
        return sparse.block_diagonalize(m, n, k)
    if transform == "collapse":
        return sparse.block_collapse(m, n, k)
    raise ValueError(f"unknown transform {transform!r}")


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
        sparse.spgemm(lmat, rmat, sparse.ROW_BY_ROW, counter, into=acc)
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
