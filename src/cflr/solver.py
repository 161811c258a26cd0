"""Fixpoint engines: the baseline squaring loop and the delta loop with its
optional refinements (dual row/column-major copies, lazy union via matrix
forests, block execution of indexed rule families).

All variants compute the same relation: entry (i, j) in symbol x's matrix
iff some i -> j path spells a word derivable from x.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import sparse
from .grammar import Symbol, WcnfGrammar, expand_indexed
from .graph import LabeledGraph
from .semiring import (
    HBLOCK,
    PLAIN,
    VBLOCK,
    BinStep,
    NontermMatrix,
    _apply_transform,
    build_rule_plan,
    initial_matrix,
    stored_symbols,
)
from .sparse import BoolMat, COL, OpCounter, ROW

VARIANT_NAMES = ("ma", "ma1", "ma14", "ma1234", "ma12345")

_NAMED_FLAGS: dict[str, dict[str, bool]] = {
    "ma": {},
    "ma1": {"delta": True},
    "ma14": {"delta": True, "indexed_blocks": True},
    "ma1234": {"delta": True, "dual_format": True, "lazy_union": True, "indexed_blocks": True},
    # the fifth optimization is a grammar choice, not an engine flag
    "ma12345": {"delta": True, "dual_format": True, "lazy_union": True, "indexed_blocks": True},
}


class SolveTimeout(RuntimeError):
    pass


@dataclass(frozen=True)
class VariantFlags:
    delta: bool = False
    dual_format: bool = False
    lazy_union: bool = False
    indexed_blocks: bool = False
    b: int = 10

    def __post_init__(self):
        if self.lazy_union and not self.delta:
            raise ValueError("lazy_union requires delta (the forest absorbs deltas)")
        if self.dual_format and not self.delta:
            raise ValueError("dual_format requires delta (deltas pick the orientation)")
        if not isinstance(self.b, int) or self.b <= 1:
            raise ValueError("forest growth factor b must be an integer > 1")

    @classmethod
    def named(cls, name: str, b: int = 10) -> "VariantFlags":
        try:
            kw = _NAMED_FLAGS[name]
        except KeyError:
            raise ValueError(
                f"unknown variant {name!r} (known: {', '.join(VARIANT_NAMES)})"
            ) from None
        return cls(b=b, **kw)


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

    def payloads(self, largest_first: bool = False):
        return self.elements[::-1] if largest_first else list(self.elements)

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


def forest_difference(
    d: BoolMat, forest: MatrixForest, counter: OpCounter | None = None
) -> BoolMat:
    """d minus the forest's logical union, subtracting piece by piece,
    largest piece first."""
    return _subtract_pieces(d, forest.payloads(largest_first=True), counter)


def _subtract_pieces(d: BoolMat, pieces, counter: OpCounter | None = None) -> BoolMat:
    for piece in pieces:
        d = sparse.difference(d, piece, counter)
    return d


def multiply_with_forest(
    d: BoolMat,
    forest: MatrixForest,
    side: str,
    dual_format: bool = False,
    counter: OpCounter | None = None,
) -> BoolMat:
    """Product of a delta with a forest-held matrix.

    ``delta-left`` computes the union of d @ piece row-by-row; ``delta-right``
    the union of piece @ d, column-by-column when dual_format (the delta,
    converted to column-major, drives the cost), row-by-row otherwise.
    """
    if side not in ("delta-left", "delta-right"):
        raise ValueError(f"unknown side {side!r}")
    out: BoolMat | None = None
    d_col = None
    for piece in forest.payloads(largest_first=True):
        if side == "delta-left":
            prod = sparse.spgemm(d, piece, sparse.ROW_BY_ROW, counter)
        elif dual_format:
            if d_col is None:
                d_col = sparse.convert(d, COL)
            prod = sparse.spgemm(
                sparse.convert(piece, COL), d_col, sparse.COL_BY_COL, counter
            )
            prod = sparse.convert(prod, ROW)
        else:
            prod = sparse.spgemm(piece, d, sparse.ROW_BY_ROW, counter)
        out = prod if out is None else sparse.union(out, prod, counter)
    # an empty forest holds the all-zero matrix of d's shape
    return out if out is not None else BoolMat.empty(d.rows, d.cols)


# ---------------------------------------------------------------------------
# internal storage: per-symbol copies in every (representation, layout) the
# rule plan consumes


_StoreKey = tuple[str, str]  # (repr, layout)


def _derive(m: BoolMat, src_repr: str, dst_repr: str, dst_layout: str, n: int, k: int) -> BoolMat:
    out = m
    if src_repr != dst_repr:
        if src_repr == HBLOCK and dst_repr == VBLOCK:
            out = sparse.horizontal_to_vertical(out, n, k)
        elif src_repr == VBLOCK and dst_repr == HBLOCK:
            out = sparse.vertical_to_horizontal(out, n, k)
        else:
            raise ValueError(f"cannot derive {dst_repr} from {src_repr}")
    if out.layout != dst_layout:
        out = sparse.convert(out, dst_layout)
    return out


class _Bundle:
    """Mirrored copies of one logical matrix, one per store key."""

    __slots__ = ("copies", "nnz")

    def __init__(self, copies: dict[_StoreKey, BoolMat]):
        self.copies = copies
        self.nnz = next(iter(copies.values())).nnz if copies else 0

    @classmethod
    def from_canonical(
        cls, mat: BoolMat, src_repr: str, keys, n: int, k: int
    ) -> "_Bundle":
        return cls({(r, lay): _derive(mat, src_repr, r, lay, n, k) for r, lay in keys})

    def union(self, other: "_Bundle", counter: OpCounter | None) -> "_Bundle":
        return _Bundle(
            {key: sparse.union(m, other.copies[key], counter) for key, m in self.copies.items()}
        )


class _DeltaView:
    """A freshly discovered delta with lazily derived copies."""

    __slots__ = ("mat", "key", "n", "k", "_cache")

    def __init__(self, mat: BoolMat, key: _StoreKey, n: int, k: int):
        self.mat = mat
        self.key = key
        self.n = n
        self.k = k
        self._cache: dict[_StoreKey, BoolMat] = {key: mat}

    def copy(self, repr_: str, layout: str) -> BoolMat:
        key = (repr_, layout)
        m = self._cache.get(key)
        if m is None:
            m = _derive(self.mat, self.key[0], repr_, layout, self.n, self.k)
            self._cache[key] = m
        return m

    def bundle(self, keys) -> _Bundle:
        return _Bundle({key: self.copy(*key) for key in keys})


class _Store:
    """All stored state for one symbol: a single bundle, or a forest of
    bundles under lazy union."""

    __slots__ = ("sym", "keys", "canonical", "n", "k", "forest", "bundle")

    def __init__(self, sym, keys, canonical, n, k, lazy: bool, b: int):
        self.sym = sym
        self.keys = tuple(keys)
        self.canonical = canonical
        self.n = n
        self.k = k
        if lazy:
            self.forest: MatrixForest | None = MatrixForest(b, combine=_Bundle.union)
            self.bundle = None
        else:
            self.forest = None
            self.bundle = _Bundle(
                {key: BoolMat.empty(*_dims(key[0], n, k), layout=key[1]) for key in self.keys}
            )

    def pieces(self, key: _StoreKey) -> list[BoolMat]:
        if self.forest is None:
            return [self.bundle.copies[key]]
        return [el.copies[key] for el in self.forest.payloads(largest_first=True)]

    def insert(self, dview: _DeltaView, counter: OpCounter | None) -> None:
        db = dview.bundle(self.keys)
        if self.forest is None:
            self.bundle = self.bundle.union(db, counter)
        else:
            self.forest.insert(db, counter)

    def subtract(self, cmat: BoolMat) -> BoolMat:
        """cmat (in this store's canonical key) minus the stored matrix."""
        return _subtract_pieces(cmat, self.pieces(self.canonical))

    def materialized(self) -> BoolMat:
        """Logical matrix in the canonical key (no counter: reporting only)."""
        if self.forest is None:
            return self.bundle.copies[self.canonical]
        out = BoolMat.empty(*_dims(self.canonical[0], self.n, self.k), layout=self.canonical[1])
        for el in self.forest.payloads(largest_first=True):
            out = sparse.union(out, el.copies[self.canonical])
        return out

    def canonical_nnz(self) -> int:
        if self.forest is None:
            return self.bundle.nnz
        return self.materialized().nnz


def _dims(repr_: str, n: int, k: int) -> tuple[int, int]:
    if repr_ == PLAIN:
        return (n, n)
    if repr_ == HBLOCK:
        return (n, k * n)
    return (k * n, n)


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
    threads: int = 1,
    deadline: float | None = None,
    iteration_hook=None,
) -> SolveResult:
    """All-pairs reachability over ``graph`` for every nonterminal of ``g``.

    ``g`` must already be in the accepted normal form.  Without
    ``flags.indexed_blocks`` an indexed grammar is first expanded against
    the graph's index universe.  ``iteration_hook(iteration, m_old, delta,
    m)`` is called at the top of every delta-loop iteration with
    materialized views.  ``deadline`` is a ``time.monotonic()`` instant
    after which :class:`SolveTimeout` is raised between iterations.
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
    syms = stored_symbols(g_run)
    is_family = {
        s: (use_blocks and g_run.is_indexed_symbol(s)) for s in syms
    }

    # which (representation, layout) copies each symbol's store must keep
    left_lay = COL if flags.dual_format else ROW
    needs: dict[Symbol, set[_StoreKey]] = {s: set() for s in syms}
    for st in plan.bin_steps:
        needs[st.left[0]].add((st.left[1], left_lay))
        needs[st.right[0]].add((st.right[1], ROW))
    for ust in plan.unit_steps:
        needs[ust.source[0]].add((ust.source[1], ROW))

    canonical: dict[Symbol, _StoreKey] = {}
    for s in syms:
        if is_family[s]:
            needs[s].add((HBLOCK, ROW))
            canonical[s] = (HBLOCK, ROW)
        else:
            if not needs[s]:
                needs[s].add((PLAIN, ROW))
            canonical[s] = (PLAIN, ROW) if (PLAIN, ROW) in needs[s] else (PLAIN, COL)

    counter = OpCounter()
    stores = {
        s: _Store(s, sorted(needs[s]), canonical[s], n, k, flags.lazy_union, flags.b)
        for s in syms
    }

    init = initial_matrix(graph, g_run, use_blocks)
    init_canonical: dict[Symbol, BoolMat] = {}
    for (sym, repr_), m in init.mats.items():
        if sym not in stores:
            continue
        crepr, clay = canonical[sym]
        init_canonical[sym] = _derive(m, repr_, crepr, clay, n, k)

    capacity = sum(_dims(canonical[s][0], n, k)[0] * _dims(canonical[s][0], n, k)[1] for s in syms)
    max_iterations = capacity + 2

    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def run_tasks(tasks):
        if executor is None:
            return [t() for t in tasks]
        return list(executor.map(lambda fn: fn(), tasks))

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout("solve exceeded its deadline")

    def normalize_to(sym: Symbol, repr_: str, piece: BoolMat) -> BoolMat:
        crepr, clay = canonical[sym]
        return _derive(piece, repr_, crepr, clay, n, k)

    def bin_task(step: BinStep, left_mats, right_mats, orientation):
        def run():
            local = OpCounter()
            out: BoolMat | None = None
            for lm in left_mats:
                la = _apply_transform(lm, step.left_transform, n, k)
                for rm in right_mats:
                    ra = _apply_transform(rm, step.right_transform, n, k)
                    prod = sparse.spgemm(la, ra, orientation, local)
                    out = prod if out is None else sparse.union(out, prod, local)
            if out is not None and out.nnz:
                out = normalize_to(step.result[0], step.result[1], out)
            return step.result[0], out, local

        return run

    def empty_delta(sym: Symbol, repr_: str, layout: str) -> BoolMat:
        return BoolMat.empty(*_dims(repr_, n, k), layout=layout)

    def accumulate(results, acc: dict[Symbol, BoolMat]):
        for sym, piece, local in results:
            counter.add(local)
            if piece is None or not piece.nnz:
                continue
            cur = acc.get(sym)
            acc[sym] = piece if cur is None else sparse.union(cur, piece, counter)

    def materialized_view() -> NontermMatrix:
        mats = {}
        for s in syms:
            m = stores[s].materialized()
            crepr, _ = canonical[s]
            mats[(s, crepr)] = _derive(m, crepr, crepr, ROW, n, k)
        return NontermMatrix(n, universe, mats)

    iterations = 0
    try:
        if not flags.delta:
            # baseline: square and fold until the total size stops moving
            for s in syms:
                im = init_canonical.get(s)
                if im is not None and im.nnz:
                    stores[s].insert(_DeltaView(im, canonical[s], n, k), counter)
            while True:
                check_deadline()
                iterations += 1
                if iterations > max_iterations:
                    raise RuntimeError("fixpoint failed to converge (bug)")
                tasks = [
                    bin_task(
                        st,
                        stores[st.left[0]].pieces((st.left[1], ROW)),
                        stores[st.right[0]].pieces((st.right[1], ROW)),
                        sparse.ROW_BY_ROW,
                    )
                    for st in plan.bin_steps
                ]
                acc: dict[Symbol, BoolMat] = {}
                accumulate(run_tasks(tasks), acc)
                for ust in plan.unit_steps:
                    piece = stores[ust.source[0]].pieces((ust.source[1], ROW))[0]
                    if ust.collapse:
                        piece = sparse.block_collapse(piece, n, k)
                    if piece.nnz:
                        piece = normalize_to(ust.result[0], ust.result[1], piece)
                        cur = acc.get(ust.result[0])
                        acc[ust.result[0]] = (
                            piece if cur is None else sparse.union(cur, piece, counter)
                        )
                changed = False
                for s in syms:
                    cm = acc.get(s)
                    if cm is None or not cm.nnz:
                        continue
                    before = stores[s].canonical_nnz()
                    stores[s].insert(_DeltaView(cm, canonical[s], n, k), counter)
                    if stores[s].canonical_nnz() != before:
                        changed = True
                if not changed:
                    break
        else:
            deltas: dict[Symbol, _DeltaView] = {
                s: _DeltaView(m, canonical[s], n, k)
                for s, m in init_canonical.items()
                if m.nnz
            }
            while deltas:
                check_deadline()
                iterations += 1
                if iterations > max_iterations:
                    raise RuntimeError("fixpoint failed to converge (bug)")
                if iteration_hook is not None:
                    delta_view_nm = NontermMatrix(
                        n,
                        universe,
                        {
                            (s, canonical[s][0]): _derive(
                                dv.mat, canonical[s][0], canonical[s][0], ROW, n, k
                            )
                            for s, dv in deltas.items()
                        },
                    )
                    m_old_nm = materialized_view()
                    iteration_hook(
                        iterations,
                        m_old_nm,
                        delta_view_nm,
                        m_old_nm.union(delta_view_nm),
                    )

                def delta_side(sym: Symbol, repr_: str, layout: str) -> BoolMat:
                    dv = deltas.get(sym)
                    if dv is None:
                        return empty_delta(sym, repr_, layout)
                    return dv.copy(repr_, layout)

                # products against the pre-insertion snapshot, delta on the right
                orientation_a = sparse.COL_BY_COL if flags.dual_format else sparse.ROW_BY_ROW
                tasks_a = [
                    bin_task(
                        st,
                        stores[st.left[0]].pieces((st.left[1], left_lay)),
                        [delta_side(st.right[0], st.right[1], left_lay)],
                        orientation_a,
                    )
                    for st in plan.bin_steps
                ]
                results_a = run_tasks(tasks_a)

                for s, dv in deltas.items():
                    stores[s].insert(dv, counter)

                # products against the updated matrix, delta on the left
                tasks_b = [
                    bin_task(
                        st,
                        [delta_side(st.left[0], st.left[1], ROW)],
                        stores[st.right[0]].pieces((st.right[1], ROW)),
                        sparse.ROW_BY_ROW,
                    )
                    for st in plan.bin_steps
                ]
                results_b = run_tasks(tasks_b)

                acc = {}
                accumulate(results_a, acc)
                accumulate(results_b, acc)
                for ust in plan.unit_steps:
                    piece = delta_side(ust.source[0], ust.source[1], ROW)
                    if ust.collapse:
                        piece = sparse.block_collapse(piece, n, k)
                    if piece.nnz:
                        piece = normalize_to(ust.result[0], ust.result[1], piece)
                        cur = acc.get(ust.result[0])
                        acc[ust.result[0]] = (
                            piece if cur is None else sparse.union(cur, piece, counter)
                        )

                new_deltas: dict[Symbol, _DeltaView] = {}
                for s in syms:
                    cm = acc.get(s)
                    if cm is None or not cm.nnz:
                        continue
                    dnew = stores[s].subtract(cm)
                    if dnew.nnz:
                        new_deltas[s] = _DeltaView(dnew, canonical[s], n, k)
                deltas = new_deltas
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    return SolveResult(
        matrices=materialized_view(),
        counters=counter,
        iterations=iterations,
        flags=flags,
        grammar=g_run,
    )
