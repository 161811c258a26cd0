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
delta into an outer product.  Without it M_old * delta runs row by row,
driven by M, and ``sparse.spgemm`` skips each row of M that shares no
key with the delta's lines by one C-level test.

Each stored symbol's slot, its place in the rule plan's ``stored`` table,
indexes the lists of stores, deltas and accumulators, and every step is
resolved once, before the loop, into records of slots, store keys and
transforms (``_Operand``).  An unkept left copy is read through its record's
pre-built empty stand-in, and a step whose delta is absent this pass multiplies
two stand-ins without reading the store, so every product is still formed and counted.

All variants compute the same relation: entry (i, j) in symbol x's matrix
iff some i -> j path spells a word derivable from x.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

from . import sparse
from .grammar import WcnfGrammar, collector_paused, expand_indexed
from .graph import LabeledGraph
from .semiring import (
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
        is left.  A binary-counter carry: the new piece goes after every
        piece of equal or smaller size, as a stable sort by size puts it.
        Only a pair with it can break the invariant, the left one first; a
        merged piece moves after every smaller piece that follows it, as
        the sort would move it, and the carry goes on from there."""
        if not payload.nnz:
            return
        # a new list of exactly its length: insert() would leave growth slack
        els = self.elements + [payload]
        i = len(els) - 1
        while i and els[i - 1].nnz > payload.nnz:
            els[i] = els[i - 1]
            i -= 1
        els[i] = el = payload
        while True:
            if i and self.b * els[i - 1].nnz >= el.nnz:
                i -= 1
            elif not (i + 1 < len(els) and self.b * el.nnz >= els[i + 1].nnz):
                break
            el = self.combine(els[i], els[i + 1], counter)
            els[i : i + 2] = [el]
            while i + 1 < len(els) and els[i + 1].nnz < el.nnz:
                els[i] = els[i + 1]
                i += 1
            els[i] = el
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
    made from a fresh delta does not own its copies while its pass lasts:
    the delta is still read in that pass, so a merge into it goes into a
    copy.  Once the pass is over the bundle owns them, and merges go into
    it in place."""

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

    def copy(self, key: _StoreKey) -> BoolMat:
        m = self._cache.get(key)
        if m is None:
            st = self.store
            m = self.mat
            repr_, layout = key
            if repr_ != st.canonical[0]:
                # a family's vertical blocks: the one other form a rule reads
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
        return [el.copies[key] for el in self.bundles]

    def insert(self, dview: _DeltaView, counter: OpCounter | None) -> None:
        db = _Bundle({key: dview.copy(key) for key in self.keys}, owned=False)
        if self.forest is None:
            self.bundles[0].merge(db, counter)
        else:
            # the earlier passes' deltas are no longer read
            for el in self.bundles:
                el.owned = True
            self.forest.insert(db, counter)
            self.bundles = self.forest.elements[::-1]
        # no generator: a solve's memory peaks about here
        nnz = 0
        for el in self.bundles:
            nnz += el.nnz
        for key, excess in self.pending:
            # switch once the lines would take no more memory as ints; the
            # sum stops once its lines so far, largest piece first, rule it out
            lines = 0
            for el in self.bundles:
                lines += len(el.copies[key].lines)
                if lines * excess > nnz * _SLOT_BYTES:
                    break
            else:
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


class _Operand(NamedTuple):
    """A step's operand, resolved before the loop: its symbol's slot, read
    from the delta or the store, the store key read and whether the store
    keeps it, the step's transform, and that key's empty matrix, transformed."""

    slot: int
    delta: bool
    key: _StoreKey
    kept: bool
    transform: str | None
    empty: BoolMat


@dataclass
class SolveResult:
    matrices: NontermMatrix
    counters: OpCounter
    iterations: int
    flags: VariantFlags
    grammar: WcnfGrammar  # the grammar actually executed (expanded if needed)

    def triples(self):
        return self.matrices.to_triples()


@collector_paused
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
    the graph's index universe.  Every rule step is resolved once, before
    the loop, into records of :class:`_Operand` slots, keys and transforms;
    an unkept left copy is read through its record's pre-built empty
    stand-in, and an absent delta's step multiplies two of them, once per
    piece of its store side, so every product is still formed and counted.
    ``iteration_hook(iteration, m_old, delta, m)`` is called at the top of
    every iteration of every variant with snapshots, copies no later pass
    changes: ``delta`` is the pass's delta (which the stores go on to keep
    and merge into in place), disjoint from ``m_old``, and ``m`` is their
    union.  Without a hook nothing is copied.  ``deadline`` is a
    ``time.monotonic()`` instant after which :class:`SolveTimeout` is
    raised: it is checked at the top of every iteration, before each
    product, each store insert, each unit-rule step and each symbol's mask.
    Once the loop ends every store drops all but its canonical copies, and
    each store is let go as soon as its matrix is built.
    The cyclic garbage collector is paused for the whole solve, hook included.
    """
    if not isinstance(g, WcnfGrammar):
        raise TypeError("solve expects a validated grammar; run ensure_wcnf first")
    expand = g.is_indexed and not flags.indexed_blocks
    g_run = expand_indexed(g, graph.index_universe) if expand else g
    use_blocks = flags.indexed_blocks and g_run.is_indexed
    n = graph.vertex_count
    universe = tuple(graph.index_universe) if use_blocks else ()
    k = len(universe)
    plan = build_rule_plan(g_run, use_blocks)
    slot = {s: i for i, s in enumerate(plan.stored)}
    # whether some step produces each slot's symbol, resolved once
    produced = tuple(map(
        {st.result[0] for st in (*plan.bin_steps, *plan.unit_steps)}.__contains__, plan.stored
    ))

    def operand(mk, layout: str, transform: str | None, delta: bool, kept=True) -> _Operand:
        empty = BoolMat.empty(*matrix_dims(mk[1], n, k), layout=layout)
        if transform is not None:
            empty = _apply_transform(empty, transform, n, k)
        return _Operand(slot[mk[0]], delta, (mk[1], layout), kept, transform, empty)

    # (result, left, right) for M_old * delta and for delta * M_new (baseline
    # M * M), (result, source) for a unit rule.  M_old's column copy is kept
    # only for a right operand that some step produces: any other has a
    # delta only in the first iteration, when M_old is empty
    old_steps = [
        (slot[st.result[0]], operand(st.left, COL if flags.dual_format else ROW, st.left_transform,
                                     False, not flags.dual_format or produced[slot[st.right[0]]]),
         operand(st.right, ROW, st.right_transform, True))
        for st in plan.bin_steps
    ]
    new_steps = [
        (slot[st.result[0]], operand(st.left, ROW, st.left_transform, flags.delta),
         operand(st.right, ROW, st.right_transform, False))
        for st in plan.bin_steps
    ]
    unit_steps = [(slot[u.result[0]], operand(u.source, ROW, u.transform, flags.delta))
                  for u in plan.unit_steps]
    # each store keeps its row-major canonical copy, where its seeds,
    # deltas, accumulator and mask are, and every kept copy a step reads
    needs = [{(r, ROW)} for r in plan.stored.values()]
    for _, *ops in old_steps + new_steps + unit_steps:
        for op in ops:
            if op.kept and not op.delta:
                needs[op.slot].add(op.key)
    stores = [_Store(s, sorted(needs[i]), (r, ROW), n, k, flags.lazy_union)
              for i, (s, r) in enumerate(plan.stored.items())]
    max_iterations = sum(st.dims[0] * st.dims[1] for st in stores) + 2
    counter = OpCounter()
    monotonic = time.monotonic

    def check_deadline():
        if deadline is not None and monotonic() > deadline:
            raise SolveTimeout("solve exceeded its deadline")

    # every variant starts from the seeds as its delta, row-major, in each
    # symbol's canonical representation.  The seed collection is not kept:
    # each seed lives only as long as its delta, or as a forest piece
    seeds = {s: m for (s, _), m in initial_matrix(graph, g_run, use_blocks).mats.items()}
    deltas = [_DeltaView(seeds[st.sym], st) if st.sym in seeds else None for st in stores]
    del seeds

    def read(op: _Operand) -> list[BoolMat]:
        """Its present delta or each piece of its store, or for an unkept
        copy the empty stand-in, so products are still formed and counted."""
        i, delta, key, kept, transform, empty = op
        if delta:
            ms = [deltas[i].copy(key)]
        elif not kept:
            return [empty] * len(stores[i].bundles)
        else:
            ms = []
            for el in stores[i].bundles:
                ms.append(el.copies[key])
        return ms if transform is None else [_apply_transform(m, transform, n, k) for m in ms]

    def gather(steps) -> None:
        """Multiply every binary step's operands into its result's accumulator.
        A list-form delta on the left (delta * M_new) pushes through its column
        view, made once per delta and pass, when it has more lines than the right
        operand has lines and entries together; otherwise, and always in bit
        form, it pulls row by row.  Both directions form, count and put the same rows."""
        for res, left, right in steps:
            acc = accs[res]
            if (left.delta and deltas[left.slot] is None
                    or right.delta and deltas[right.slot] is None):
                for _ in stores[(right if left.delta else left).slot].bundles:
                    check_deadline()
                    sparse.spgemm(left.empty, right.empty, counter, into=acc)
                continue
            ras = read(right)
            for la in read(left):
                # the lines a list-form delta would pull; 0 never pushes
                lines = len(la.lines) if left.delta and not la.bits else 0
                pushed = None
                for ra in ras:
                    # check_deadline(), inlined: it runs before every product
                    if deadline is not None and monotonic() > deadline:
                        raise SolveTimeout("solve exceeded its deadline")
                    if lines and ra.nnz and lines > len(ra.lines) + ra.nnz:
                        if pushed is None:
                            pushed = read(left._replace(key=(left.key[0], COL)))[0]
                        sparse.spgemm(pushed, ra, counter, into=acc)
                    else:
                        sparse.spgemm(la, ra, counter, into=acc)

    def pour() -> None:
        for res, source in unit_steps:
            if source.delta and deltas[source.slot] is None:
                check_deadline()
                continue
            for piece in read(source):
                check_deadline()
                accs[res].add(piece)

    def next_delta(store: _Store, acc: Accumulator) -> _DeltaView | None:
        """What survives the mask of the stored matrix."""
        check_deadline()
        fresh = sparse.masked(acc, store.pieces(store.canonical), counter)
        return _DeltaView(fresh, store) if fresh.nnz else None

    def snapshot() -> NontermMatrix:
        """Every symbol's matrix, row-major, copied: ``materialized()`` may
        share lines with the stores, which change in place."""
        return NontermMatrix(n, universe, {
            (st.sym, st.canonical[0]): st.materialized().copy() for st in stores
        })

    iterations = 0
    while any(deltas):
        check_deadline()
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("fixpoint failed to converge (bug)")
        if iteration_hook is not None:
            # copies: under lazy union a store keeps each delta as a piece it merges into
            delta_nm = NontermMatrix(n, universe, {
                (dv.store.sym, dv.store.canonical[0]): dv.copy(dv.store.canonical).copy()
                for dv in deltas if dv is not None
            })
            m_old_nm = snapshot()
            iteration_hook(iterations, m_old_nm, delta_nm, m_old_nm.union(delta_nm))

        accs = [st.accumulator() if p else None for st, p in zip(stores, produced)]
        if flags.delta:
            # M_old * delta, against the stores before the insert; under
            # dual_format the delta's rows drive it through M's columns
            gather(old_steps)
        # by slot, so that no name outlives the loop holding a delta
        for i in range(len(stores)):
            if deltas[i] is not None:
                check_deadline()
                stores[i].insert(deltas[i], counter)
        # delta * M_new (baseline: M * M), then the unit rules
        gather(new_steps)
        pour()
        # the next deltas; this pass's go first
        deltas.clear()
        deltas = [next_delta(st, acc) if acc else None for st, acc in zip(stores, accs)]

    # the loop's other copies and int line copies are read no more: each
    # bundle keeps only its canonical copy, and each store goes once its matrix is built
    for st in stores:
        for el in st.bundles:
            el.copies = {st.canonical: el.copies[st.canonical]}
            el.copies[st.canonical]._ints = None
    mats = {}
    while stores:
        st = stores.pop(0)
        mats[(st.sym, st.canonical[0])] = st.materialized()
    return SolveResult(NontermMatrix(n, universe, mats), counter, iterations, flags, g_run)
