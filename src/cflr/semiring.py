"""The reachability algebra over per-nonterminal Boolean matrices.

A value of the algebra is a set of grammar symbols; addition is set union
and multiplication combines two sets through the binary productions.  A
matrix over this algebra is stored as one Boolean matrix per symbol, and
its product decomposes into one Boolean product per binary production.

Indexed symbol families are stored as block matrices over the index
universe of size k: a horizontal |V| x k|V| block row and/or a vertical
k|V| x |V| block column, so one Boolean product covers a whole family of
productions at once.  Seven shapes cover every accepted binary rule:

  plain    c   -> x   y      plain  = plain . plain
  paired   c   -> x_i y_i    plain  = H[x] . V[y]
  keep-r   c_i -> x   y_i    H[c]   = plain . H[y]
  keep-l   c_i -> x_i y      V[c]   = V[x] . plain
  locked   c_i -> x_i y_i    V[c]   = diag(V[x]) . V[y]
  drop-l   c   -> x_i y      plain  = collapse(x) . plain
  drop-r   c   -> x   y_i    plain  = plain . collapse(y)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import sparse
from .grammar import EPSILON, NONTERMINAL, TERMINAL, Symbol, WcnfGrammar, collector_paused
from .graph import LabeledGraph
from .sparse import BoolMat, OpCounter

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


# Whether (result, left, right) are indexed families -> (result repr, left
# repr, right repr, left transform, right transform), in the order of the
# shapes above.  An indexed result needs an indexed operand, so neither
# (True, False, False) here nor (True, False) in the unit table occurs.
_BIN_SHAPES = {
    (False, False, False): (PLAIN, PLAIN, PLAIN, None, None),
    (False, True, True): (PLAIN, HBLOCK, VBLOCK, None, None),
    (True, False, True): (HBLOCK, PLAIN, HBLOCK, None, None),
    (True, True, False): (VBLOCK, VBLOCK, PLAIN, None, None),
    (True, True, True): (VBLOCK, VBLOCK, VBLOCK, "diag", None),
    (False, True, False): (PLAIN, HBLOCK, PLAIN, "collapse", None),
    (False, False, True): (PLAIN, PLAIN, HBLOCK, None, "collapse"),
}
# Whether (result, source) are indexed -> (result repr, source repr, transform).
_UNIT_SHAPES = {
    (False, False): (PLAIN, PLAIN, None),
    (True, True): (HBLOCK, HBLOCK, None),
    (False, True): (PLAIN, HBLOCK, "collapse"),
}


@dataclass(frozen=True)
class RulePlan:
    """The steps, and the one table of the symbols that own a matrix:
    ``stored`` maps every nonterminal (sorted), then every terminal a
    binary rule reads, to its canonical representation, ``PLAIN`` or
    ``HBLOCK`` for an indexed family under ``indexed_blocks``.  The seeds
    and the solver's stores are keyed by this table."""

    bin_steps: tuple[BinStep, ...]
    unit_steps: tuple[UnitStep, ...]
    stored: dict[Symbol, str]


def build_rule_plan(g: WcnfGrammar, indexed_blocks: bool = False) -> RulePlan:
    """Compile the grammar's binary and unit rules into executable steps.

    Without ``indexed_blocks`` the grammar must already be index-free
    (expanded); every step is then a plain product.
    """

    def is_ix(s: Symbol) -> bool:
        return indexed_blocks and g.is_indexed_symbol(s)

    stored = {
        s: HBLOCK if is_ix(s) else PLAIN
        for s in sorted(g.nonterminals, key=lambda s: (s.base, s.index or ""))
    }
    bins: list[BinStep] = []
    for c, x, y in g.binary_rules:
        for s in (x, y):
            if s.kind == TERMINAL:
                stored.setdefault(s, HBLOCK if is_ix(s) else PLAIN)
        rc, rx, ry, lt, rt = _BIN_SHAPES[is_ix(c), is_ix(x), is_ix(y)]
        bins.append(BinStep((c, rc), (x, rx), (y, ry), lt, rt))

    units: list[UnitStep] = []
    for c, s in g.unit_rules:
        rc, rs, t = _UNIT_SHAPES[is_ix(c), is_ix(s)]
        units.append(UnitStep((c, rc), (s, rs), t))

    return RulePlan(tuple(bins), tuple(units), stored)


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

    def member(self, sym: Symbol) -> BoolMat:
        """The n x n matrix of a plain symbol or family member: its plain
        key's, else its tag's slot of the family with its base, else empty."""
        m = self.mats.get((sym, PLAIN))
        fams = [h for (s, r), h in self.mats.items() if r == HBLOCK and s.base == sym.base]
        if m is None and fams and sym.index in self.universe:
            m = sparse._block_slots(fams[0], self.size, self.k)[self.universe.index(sym.index)]
        return BoolMat.empty(self.size, self.size) if m is None else m

    def _members(self) -> Iterator[tuple[Symbol, BoolMat]]:
        """(symbol, n x n matrix) for every nonterminal, each member of a
        family listed with its tag's slot."""
        for (sym, repr_), m in self.mats.items():
            if sym.kind != NONTERMINAL:
                continue
            if repr_ == PLAIN:
                yield sym, m
            else:
                for tag, slot in zip(self.universe, sparse._block_slots(m, self.size, self.k)):
                    yield Symbol(sym.kind, sym.base, tag), slot

    @collector_paused
    def pairs(self, sym: Symbol) -> list[tuple[int, int]]:
        """Sorted (source, target) pairs for a plain or concrete-indexed
        symbol."""
        return sorted(self.member(sym).entries())

    @collector_paused
    def to_triples(self) -> frozenset[tuple[Symbol, int, int]]:
        """All (nonterminal, source, target) facts, indexed families
        decoded into concrete per-index symbols."""
        members = ((sym, m.in_form(False).lines) for sym, m in self._members())
        return frozenset((sym, i, j) for sym, lines in members for i, row in lines.items() for j in row)

    def pair_counts(self) -> dict[str, int]:
        """The pairs of each nonterminal that has any, by name, as counted
        over :meth:`to_triples` but read as each member's nnz; a plain name
        and a member's name can coincide, so their counts are summed."""
        counts: Counter[str] = Counter()
        for sym, m in self._members():
            counts[sym.name()] += m.nnz
        return dict(sorted((+counts).items()))

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
    by a binary rule.  Each matrix is keyed by its symbol's representation
    in the rule plan's ``stored`` table.

    The seeds are built label by label from ``graph.label_index``: each
    label's targets (a matrix and a column offset each) are worked out
    once, and the label's pairs are then added to their rows."""
    n = graph.vertex_count
    universe = graph.index_universe if indexed_blocks and g.is_indexed else ()
    k = len(universe)
    stored = build_rule_plan(g, indexed_blocks).stored
    indexed_term_bases = g.indexed_terminal_bases() if indexed_blocks else frozenset()

    # the rows of every seed matrix, each a list of positions that may be
    # unsorted and repeated until the end
    rows: dict[MatKey, dict[int, list[int]]] = {}

    for label, pairs in graph.label_index.items():
        term, off = label, 0
        if label.index is not None and label.base in indexed_term_bases:
            # a family member: its pairs land in its family's block slot
            term = Symbol(TERMINAL, label.base, g.index_variable)
            off = universe.index(label.index) * n
        targets = list(g.terminal_rules.get(term, ()))
        if term in stored:
            targets.append(term)
        for sym in targets:
            repr_ = stored[sym]
            out = rows.setdefault((sym, repr_), {})
            shift = off if repr_ == HBLOCK else 0
            get = out.get
            for u, v in pairs:
                if shift:  # slot 0 shares the graph's int objects
                    v += shift
                row = get(u)
                if row is None:
                    out[u] = [v]
                else:
                    row.append(v)

    for lhs in g.terminal_rules.get(EPSILON, ()):
        blocked = stored[lhs] == HBLOCK
        if blocked and not k:
            continue  # a family without index values has no block slot
        out = rows.setdefault((lhs, stored[lhs]), {})
        get = out.get
        for u in range(n):
            # the diagonal entry of slot 0, then those of the other slots
            row = get(u)
            if row is None:
                out[u] = row = [u]
            else:
                row.append(u)
            if blocked:
                row.extend(range(u + n, k * n, n))

    mats: dict[MatKey, BoolMat] = {}
    for (sym, repr_), out in rows.items():
        for u, row in out.items():
            if len(row) > 1:
                out[u] = sparse._line(set(row))
        if out:
            mats[(sym, repr_)] = BoolMat(*matrix_dims(repr_, n, k), sparse.ROW, out)
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
