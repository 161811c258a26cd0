"""The matrix-based fixpoint and its optional refinements (delta
propagation, dual row/column-major copies, lazy union via matrix forests,
block execution of indexed rule families).

Every variant runs one loop.  Each iteration starts from a delta, the
entries found by the previous iteration (the seeds at first), gathers
products into one accumulator per result symbol, inserts the delta into
the stored matrices M and masks the accumulators with M; what survives is
the next delta, and the loop ends when none does.  With ``delta`` the
products are M_old * delta (before the insert), delta * M_new and the unit
rules on the delta; the baseline multiplies M * M and applies the unit
rules to all of M.  Each delta * M_new product runs row by row or, pushed
through the delta's column view, as an outer product, whichever its
operands' sizes favour (see ``gather``); ``dual_format`` turns M_old *
delta into an outer product.

All variants compute the same relation: entry (i, j) in symbol x's matrix
iff some i -> j path spells a word derivable from x.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from . import sparse
from .grammar import Symbol, WcnfGrammar, expand_indexed
from .graph import LabeledGraph
from .semiring import (
    HBLOCK,
    VBLOCK,
    NontermMatrix,
    _apply_transform,
    build_rule_plan,
    initial_matrix,
    matrix_dims,
)
from .sparse import Accumulator, BoolMat, COL, OpCounter, ROW

# the paper's fifth optimization is a grammar choice, a preset's hand-tuned
# counterpart, not an engine flag, so it names no bundle here
_NAMED_FLAGS: dict[str, dict[str, bool]] = {
    "ma": {},
    "ma1": {"delta": True},
    "ma14": {"delta": True, "indexed_blocks": True},
    "ma1234": {"delta": True, "dual_format": True, "lazy_union": True, "indexed_blocks": True},
}

VARIANT_NAMES = tuple(_NAMED_FLAGS)


class SolveTimeout(RuntimeError):
    pass


@dataclass(frozen=True)
class VariantFlags:
    delta: bool = False
    dual_format: bool = False
    lazy_union: bool = False
    indexed_blocks: bool = False

    def __post_init__(self):
        if self.lazy_union and not self.delta:
            raise ValueError("lazy_union requires delta (the forest absorbs deltas)")
        if self.dual_format and not self.delta:
            raise ValueError("dual_format requires delta (deltas pick the product direction)")

    @classmethod
    def named(cls, name: str) -> "VariantFlags":
        try:
            kw = _NAMED_FLAGS[name]
        except KeyError:
            raise ValueError(
                f"unknown variant {name!r} (known: {', '.join(VARIANT_NAMES)})"
            ) from None
        return cls(**kw)


# ---------------------------------------------------------------------------
# matrix forests (lazy union)


class MatrixForest:
    """One logical matrix kept as a set of same-shaped pieces in size
    classes, as in a log-structured merge tree: pieces whose sizes lie
    within the growth factor b of each other, equal sizes included, are
    merged, so any two pieces differ in size by more than a factor b and a
    forest holding nnz entries has O(log_b nnz) pieces.  Inserting a sparse
    delta then touches only small pieces instead of rebuilding the whole
    matrix.  Empty payloads add no piece.
    """

    def __init__(self, b: int = 10, combine=None):
        if not isinstance(b, int) or b <= 1:
            raise ValueError("growth factor b must be an integer > 1")
        self.b = b
        self.combine = combine if combine is not None else sparse.union
        # ascending by nnz; the sizes are distinct while the invariant holds
        self.elements: list = []

    def __len__(self) -> int:
        return len(self.elements)

    def sizes(self) -> list[int]:
        return [el.nnz for el in self.elements]

    def invariant_holds(self) -> bool:
        """Every piece is non-empty and more than b times smaller than the
        next larger one."""
        ns = self.sizes()
        return all(ns) and all(self.b * a < c for a, c in zip(ns, ns[1:]))

    def piece_bound(self) -> int:
        """The most pieces strict separation allows for the entries held:
        1 + floor(log_b(total nnz)), or 0 when the forest is empty."""
        total = sum(self.sizes())
        bound = 0
        while total >= self.b**bound:
            bound += 1
        return bound

    def payloads(self):
        return list(self.elements)

    def insert(self, payload, counter: OpCounter | None = None) -> None:
        """Add a piece (an empty one adds nothing), then merge the smallest
        adjacent pair of pieces within a factor b of each other until none
        is left."""
        if not payload.nnz:
            return
        els = sorted(self.elements + [payload], key=lambda el: el.nnz)
        while True:
            hit = next(
                (i for i in range(len(els) - 1) if self.b * els[i].nnz >= els[i + 1].nnz),
                None,
            )
            if hit is None:
                break
            els[hit : hit + 2] = [self.combine(els[hit], els[hit + 1], counter)]
            els.sort(key=lambda el: el.nnz)
        self.elements = els


def forest_insert(
    forest: MatrixForest, d: BoolMat, counter: OpCounter | None = None
) -> MatrixForest:
    """Insert a delta matrix into a forest of plain Boolean matrices."""
    if forest.elements and forest.elements[0].shape() != d.shape():
        raise ValueError(f"shape mismatch: {forest.elements[0].shape()} vs {d.shape()}")
    forest.insert(d, counter)
    return forest


# ---------------------------------------------------------------------------
# internal storage: per-symbol copies in every (representation, layout) the
# rule plan consumes


_StoreKey = tuple[str, str]  # (repr, layout)


class _Bundle:
    """Mirrored copies of one logical matrix, one per store key.  A bundle
    made from a fresh delta does not own its copies: the delta is still
    read in the iteration that found it, so the bundle is copied once
    before anything is merged into it."""

    __slots__ = ("copies", "nnz", "owned")

    def __init__(self, copies: dict[_StoreKey, BoolMat], owned: bool = True):
        self.copies = copies
        self.nnz = next(iter(copies.values())).nnz if copies else 0
        self.owned = owned

    def merge(self, other: "_Bundle", counter: OpCounter | None) -> None:
        """Add the disjoint ``other`` to every copy in place."""
        for key, m in self.copies.items():
            sparse.merge_into(other.copies[key], m, counter)
        self.nnz += other.nnz


def _fold(small: _Bundle, large: _Bundle, counter: OpCounter | None) -> _Bundle:
    """A forest merge: fold the smaller of two disjoint bundles into the
    larger one, which is copied first if it does not own its copies."""
    if not large.owned:
        large = _Bundle({key: m.copy() for key, m in large.copies.items()})
    large.merge(small, counter)
    return large


class _DeltaView:
    """A freshly discovered delta of a store's symbol, in the store's
    row-major canonical key, with lazily derived copies (a family's
    vertical blocks, column-major copies), each in the line form the store
    keeps for that key."""

    __slots__ = ("mat", "store", "_cache")

    def __init__(self, mat: BoolMat, store: "_Store"):
        self.mat = mat
        self.store = store
        # the accumulator's form was chosen before this iteration's insert,
        # which may have switched the canonical key to bit form
        self._cache: dict[_StoreKey, BoolMat] = {
            store.canonical: mat.in_form(store.canonical in store.bit_keys)
        }

    def copy(self, repr_: str, layout: str) -> BoolMat:
        key = (repr_, layout)
        m = self._cache.get(key)
        if m is None:
            st = self.store
            m = self.mat
            if repr_ != st.canonical[0]:
                if (st.canonical[0], repr_) != (HBLOCK, VBLOCK):
                    raise ValueError(f"cannot derive {repr_} from {st.canonical[0]}")
                m = sparse.horizontal_to_vertical(m, st.n, st.k)
            if layout != ROW:
                m = sparse.convert(m, layout)
            m = self._cache[key] = m.in_form(key in st.bit_keys)
        return m


# what a list line costs, its header and then each slot, as measured by
# this interpreter
_LIST_BYTES = sys.getsizeof([])
_SLOT_BYTES = sys.getsizeof([None]) - _LIST_BYTES


class _Store:
    """All stored state for one symbol, its bundles in one list, largest
    first: one bundle that each delta is merged into in place, or under
    lazy union the pieces of a forest of bundles.  The canonical key is
    row-major and always kept; the symbol's deltas, accumulator and mask
    are in it.  The other keys are the copies its products read,
    column-major only for the left operand of an outer product.

    Each copy starts with its lines in list form and switches to bit form
    for good once its lines would take no more memory as ints than as
    lists (``bit_keys`` holds the keys that switched).  The accumulator
    and the deltas of this symbol follow the same choice."""

    __slots__ = (
        "sym", "keys", "canonical", "dims", "n", "k", "forest", "bundles", "bit_keys", "pending",
    )

    def __init__(self, sym, keys, canonical, n, k, lazy: bool):
        self.sym = sym
        self.keys = tuple(keys)
        self.canonical = canonical
        self.dims = matrix_dims(canonical[0], n, k)
        self.n = n
        self.k = k
        self.forest = MatrixForest(combine=_fold) if lazy else None
        self.bundles: list[_Bundle] = [] if lazy else [_Bundle(
            {key: BoolMat.empty(*matrix_dims(key[0], n, k), layout=key[1]) for key in self.keys}
        )]
        self.bit_keys: set[_StoreKey] = set()
        # the keys still in list form, each with how much more one of its
        # lines takes as an int, as wide as the line, than as an empty list
        self.pending: list[tuple[_StoreKey, int]] = []
        for repr_, layout in self.keys:
            rows, cols = matrix_dims(repr_, n, k)
            width = cols if layout == ROW else rows
            self.pending.append(((repr_, layout), sys.getsizeof((1 << width) - 1) - _LIST_BYTES))

    def pieces(self, key: _StoreKey) -> list[BoolMat]:
        # a loop, not a comprehension: CPython 3.11 makes a function call
        # for each comprehension, and this runs for every stored operand
        out = []
        for el in self.bundles:
            out.append(el.copies[key])
        return out

    def insert(self, dview: _DeltaView, counter: OpCounter | None) -> None:
        db = _Bundle({key: dview.copy(*key) for key in self.keys}, owned=False)
        if self.forest is None:
            self.bundles[0].merge(db, counter)
        else:
            self.forest.insert(db, counter)
            self.bundles = self.forest.elements[::-1]
        for key, excess in self.pending:
            # switch once the lines would take no more memory as ints
            lines = nnz = 0
            for el in self.bundles:
                m = el.copies[key]
                lines += len(m.lines)
                nnz += m.nnz
            if lines * excess <= nnz * _SLOT_BYTES:
                self.bit_keys.add(key)
                for el in self.bundles:
                    el.copies[key] = el.copies[key].in_form(True)
        if len(self.pending) + len(self.bit_keys) > len(self.keys):
            self.pending = [(key, e) for key, e in self.pending if key not in self.bit_keys]

    def accumulator(self) -> Accumulator:
        """A fresh row-major accumulator in the canonical key's shape and
        line form."""
        return Accumulator(*self.dims, bits=self.canonical in self.bit_keys)

    def materialized(self) -> BoolMat:
        """Logical matrix in the canonical key (no counter: reporting only)."""
        if self.forest is None:
            return self.bundles[0].copies[self.canonical]
        out = BoolMat.empty(*self.dims)
        for piece in self.pieces(self.canonical):
            out = sparse.union(out, piece)
        return out


# ---------------------------------------------------------------------------
# the solver


@dataclass
class SolveResult:
    matrices: NontermMatrix
    counters: OpCounter
    iterations: int
    flags: VariantFlags
    grammar: WcnfGrammar  # the grammar actually executed (expanded if needed)

    def triples(self):
        return self.matrices.to_triples()


def solve(
    graph: LabeledGraph,
    g: WcnfGrammar,
    flags: VariantFlags = VariantFlags(),
    *,
    deadline: float | None = None,
    iteration_hook=None,
) -> SolveResult:
    """All-pairs reachability over ``graph`` for every nonterminal of ``g``.

    ``g`` must already be in the accepted normal form.  Without
    ``flags.indexed_blocks`` an indexed grammar is first expanded against
    the graph's index universe.  ``iteration_hook(iteration, m_old, delta,
    m)`` is called at the top of every iteration of every variant with
    materialized snapshots: ``delta`` is disjoint from ``m_old`` and ``m``
    is their union.  ``deadline`` is a ``time.monotonic()`` instant after
    which :class:`SolveTimeout` is raised: it is checked at the top of
    every iteration, before each product, each store insert, each
    unit-rule step and each symbol's mask.
    """
    if not isinstance(g, WcnfGrammar):
        raise TypeError("solve expects a validated grammar; run ensure_wcnf first")
    if g.is_indexed and not flags.indexed_blocks:
        g_run = expand_indexed(g, graph.index_universe)
    else:
        g_run = g
    use_blocks = flags.indexed_blocks and g_run.is_indexed

    n = graph.vertex_count
    universe = tuple(graph.index_universe) if use_blocks else ()
    k = len(universe)
    plan = build_rule_plan(g_run, use_blocks)

    results = {st.result[0] for st in plan.bin_steps} | {ust.result[0] for ust in plan.unit_steps}
    # which (representation, layout) copies each symbol's store must keep.
    # Every symbol keeps its row-major canonical copy: its seeds, deltas,
    # accumulator and mask are in that key.  Under dual_format M_old *
    # delta reads M's column-major copy, which only a right operand that
    # some step produces can make non-empty: any other has a delta only in
    # the first iteration, when M_old is empty
    needs: dict[Symbol, set[_StoreKey]] = {s: {(r, ROW)} for s, r in plan.stored.items()}
    for st in plan.bin_steps:
        if not flags.dual_format:
            needs[st.left[0]].add((st.left[1], ROW))
        elif st.right[0] in results:
            needs[st.left[0]].add((st.left[1], COL))
        needs[st.right[0]].add((st.right[1], ROW))
    for ust in plan.unit_steps:
        needs[ust.source[0]].add((ust.source[1], ROW))

    counter = OpCounter()
    stores = {
        s: _Store(s, sorted(needs[s]), (r, ROW), n, k, flags.lazy_union)
        for s, r in plan.stored.items()
    }
    max_iterations = sum(st.dims[0] * st.dims[1] for st in stores.values()) + 2

    monotonic = time.monotonic

    def check_deadline():
        if deadline is not None and monotonic() > deadline:
            raise SolveTimeout("solve exceeded its deadline")

    # every variant, the baseline too, starts from the seeds as its delta;
    # they are row-major, in each symbol's canonical representation.  The
    # seed collection is not kept: each seed lives only as long as its
    # delta, or as a forest piece
    deltas: dict[Symbol, _DeltaView] = {
        s: _DeltaView(m, stores[s])
        for (s, _), m in initial_matrix(graph, g_run, use_blocks).mats.items()
    }
    # one empty operand per key, for symbols without a delta and for left
    # copies that are not kept: only read
    empties: dict[_StoreKey, BoolMat] = {}

    def empty(repr_: str, layout: str) -> BoolMat:
        if (repr_, layout) not in empties:
            empties[repr_, layout] = BoolMat.empty(*matrix_dims(repr_, n, k), layout=layout)
        return empties[repr_, layout]

    def stored(sym: Symbol, repr_: str, layout: str) -> list[BoolMat]:
        store = stores[sym]
        if (repr_, layout) in store.keys:
            return store.pieces((repr_, layout))
        # a left copy that is not kept (see needs): one empty stand-in per
        # piece, so the products are still formed and counted
        return [empty(repr_, layout)] * len(store.bundles)

    def delta_side(sym: Symbol, repr_: str, layout: str) -> list[BoolMat]:
        dv = deltas.get(sym)
        return [empty(repr_, layout) if dv is None else dv.copy(repr_, layout)]

    def gather(accs, lefts, rights, left_layout: str) -> None:
        """Multiply every binary step's operands, ``lefts``/``rights`` of
        (symbol, repr, layout), into its result symbol's accumulator.  The
        right operands are row-major; column-major left operands make
        outer products.

        A delta on the left (delta * M_new) picks each product's direction
        from its operands.  Pulled, row by row, the product visits every
        line of the delta; pushed, through the delta's column view, it
        visits each line of the right operand and scatters its entries.
        So a delta in list form pushes when it has more lines than the
        right operand has lines and entries together, and pulls otherwise,
        as a bit-form delta always does: its rows skip the misses with one
        AND each.  The column view is made once per delta and pass, and
        only for a product with entries on both sides.  Both directions
        form, count and put the same rows."""
        for st in plan.bin_steps:
            acc = accs[st.result[0]]
            ras = [_apply_transform(m, st.right_transform, n, k) for m in rights(*st.right, ROW)]
            for lm in lefts(*st.left, left_layout):
                la = _apply_transform(lm, st.left_transform, n, k)
                # the lines a list-form delta would pull; 0 never pushes
                lines = len(la.lines) if lefts is delta_side and not la.bits else 0
                pushed = None
                for ra in ras:
                    # check_deadline(), inlined: it runs before every product
                    if deadline is not None and monotonic() > deadline:
                        raise SolveTimeout("solve exceeded its deadline")
                    if lines and ra.nnz and lines > len(ra.lines) + ra.nnz:
                        if pushed is None:
                            cols = deltas[st.left[0]].copy(st.left[1], COL)
                            pushed = _apply_transform(cols, st.left_transform, n, k)
                        sparse.spgemm(pushed, ra, counter, into=acc)
                    else:
                        sparse.spgemm(la, ra, counter, into=acc)

    def materialized_view(snapshot: bool = False) -> NontermMatrix:
        """Every symbol's matrix, row-major.  These may share lines with
        the stores, which change in place, so a ``snapshot`` copies them."""
        mats = {}
        for s, store in stores.items():
            m = store.materialized()
            mats[(s, store.canonical[0])] = m.copy() if snapshot else m
        return NontermMatrix(n, universe, mats)

    # the delta variants multiply by the delta, the baseline by all of M
    new_side = delta_side if flags.delta else stored
    iterations = 0
    while deltas:
        check_deadline()
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("fixpoint failed to converge (bug)")
        if iteration_hook is not None:
            delta_nm = NontermMatrix(n, universe, {
                (s, dv.store.canonical[0]): dv.copy(*dv.store.canonical) for s, dv in deltas.items()
            })
            m_old_nm = materialized_view(snapshot=True)
            iteration_hook(iterations, m_old_nm, delta_nm, m_old_nm.union(delta_nm))

        accs = {s: st.accumulator() for s, st in stores.items() if s in results}
        if flags.delta:
            # M_old * delta, against the stores before the insert; under
            # dual_format the delta's rows drive it through M's columns
            gather(accs, stored, delta_side, COL if flags.dual_format else ROW)
        for s, dv in deltas.items():
            check_deadline()
            stores[s].insert(dv, counter)
        # delta * M_new (baseline: M * M), then the unit rules
        gather(accs, new_side, stored, ROW)
        for ust in plan.unit_steps:
            for piece in new_side(*ust.source, ROW):
                check_deadline()
                accs[ust.result[0]].add(_apply_transform(piece, ust.transform, n, k))

        # what survives the mask of the stored matrix is the next delta
        deltas = {}
        for s, acc in accs.items():
            if acc:
                check_deadline()
                store = stores[s]
                fresh = sparse.masked(acc, store.pieces(store.canonical), counter)
                if fresh.nnz:
                    deltas[s] = _DeltaView(fresh, store)

    return SolveResult(
        matrices=materialized_view(),
        counters=counter,
        iterations=iterations,
        flags=flags,
        grammar=g_run,
    )
