import itertools
import random
import time
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import cflr.solver
import cflr.sparse
from cflr.grammar import PRESET_NAMES, ensure_wcnf, parse_grammar, preset
from cflr.graph import chain_graph, load_graph
from cflr.oracle import oracle_solve
from cflr.solver import (
    VARIANT_NAMES,
    MatrixForest,
    SolveTimeout,
    VariantFlags,
    forest_insert,
    solve,
    _Bundle,
    _DeltaView,
    _Store,
    _fold,
)
from cflr.semiring import HBLOCK, PLAIN, UnitStep, build_rule_plan, initial_matrix
from cflr.grammar import nonterminal
from cflr.sparse import COL, ROW, BoolMat, convert, union
from _support import (
    difference,
    forest_difference,
    random_boolmat,
    random_instance,
    semiring_matmul,
    sized_graph_text,
    sort_and_scan_insert,
    total_nnz,
    triple_names,
)

ALL_VARIANTS = ("ma", "ma1", "ma14", "ma1234")
UNITS = parse_grammar("start: S\nS -> A | B\nA -> a | A a\nB -> b | B b\n")


class TestVariantFlags:
    def test_named_presets(self):
        assert VariantFlags.named("ma") == VariantFlags()
        assert VariantFlags.named("ma1").delta
        f = VariantFlags.named("ma1234")
        assert f.delta and f.dual_format and f.lazy_union and f.indexed_blocks

    def test_dependent_flags_enforced(self):
        with pytest.raises(ValueError):
            VariantFlags(lazy_union=True)
        with pytest.raises(ValueError):
            VariantFlags(dual_format=True)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            VariantFlags.named("ma9")

    def test_the_four_engine_flags_are_the_whole_configuration(self):
        """The paper's fifth optimization is a grammar choice, so no flag
        bundle is named for it."""
        assert [f.name for f in fields(VariantFlags)] == [
            "delta", "dual_format", "lazy_union", "indexed_blocks",
        ]
        assert VARIANT_NAMES == ("ma", "ma1", "ma14", "ma1234")
        with pytest.raises(ValueError, match="unknown variant 'ma12345'"):
            VariantFlags.named("ma12345")


class _Sized:
    """A forest piece that is only its size."""

    __slots__ = ("nnz",)

    def __init__(self, nnz: int):
        self.nnz = nnz


def _merge_log(insert, sizes, b, overlap):
    """After every insert of a piece of each size: the forest's pieces, each
    named by the order it was made in, and every ``combine(small, large)``
    pair so far.  A merged piece holds both sizes, or with ``overlap``, as
    a union of overlapping pieces, the larger one and half the smaller."""
    made = []
    pairs = []

    def combine(small, large, counter):
        pairs.append((made.index(small), made.index(large)))
        made.append(_Sized(large.nnz + (small.nnz // 2 if overlap else small.nnz)))
        return made[-1]

    f = MatrixForest(b=b, combine=combine)
    log = []
    for size in sizes:
        made.append(_Sized(size))
        insert(f, made[-1])
        log.append(([made.index(el) for el in f.elements], f.sizes(), len(pairs)))
    return log, pairs


class TestForest:
    def test_small_element_kept_separate(self):
        f = MatrixForest(b=10)
        forest_insert(f, random_boolmat(random.Random(0), 40, 40, 0.07))
        big = f.sizes()[0]
        small = BoolMat.from_entries(40, 40, [(0, i) for i in range(5)])
        forest_insert(f, small)
        assert f.sizes() == sorted([5, big])

    def test_violating_insert_merges(self):
        rng = random.Random(1)
        f = MatrixForest(b=10)
        base = random_boolmat(rng, 40, 40, 0.07)
        forest_insert(f, base)
        size0 = base.nnz
        bump = random_boolmat(rng, 40, 40, 0.04)
        while not (bump.nnz < size0 <= 10 * bump.nnz):
            bump = random_boolmat(rng, 40, 40, 0.04)
        forest_insert(f, bump)
        assert len(f) == 1
        assert f.sizes()[0] <= size0 + bump.nnz

    @pytest.mark.parametrize("b", [2, 10])
    def test_random_sequences_keep_invariant_and_union(self, b):
        rng = random.Random(b)
        for _ in range(60):
            f = MatrixForest(b=b)
            acc = BoolMat.empty(12, 12)
            for _ in range(rng.randrange(1, 12)):
                d = random_boolmat(rng, 12, 12, rng.random() * 0.4)
                forest_insert(f, d)
                acc = union(acc, d)
                assert f.invariant_holds(), f.sizes()
            got = BoolMat.empty(12, 12)
            for el in f.payloads():
                got = union(got, el)
            assert got == acc

    @given(
        st.lists(st.one_of(st.just(1), st.integers(0, 40), st.integers(1, 10**6)), max_size=80),
        st.sampled_from([2, 3, 10]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_carry_insert_merges_as_the_sort_and_scan(self, sizes, b, overlap):
        case = (sizes, b, overlap)
        assert _merge_log(MatrixForest.insert, *case) == _merge_log(sort_and_scan_insert, *case)

    @pytest.mark.parametrize("b", [2, 10])
    @pytest.mark.parametrize(
        "sizes",
        [[1] * 300, [7] * 120, [1, 1000, 1, 1, 10**6, 3, 3, 3, 500, 1] * 12,
         [2**j for j in range(20)] + [1] * 40, list(range(60, 0, -1))],
        ids=["size-1-run", "equal-sizes", "large-jumps", "doubling-then-ones", "falling"],
    )
    def test_carry_insert_merges_as_the_sort_and_scan_on_runs(self, sizes, b):
        for case in ((sizes, b, False), (sizes, b, True)):
            assert _merge_log(MatrixForest.insert, *case) == _merge_log(sort_and_scan_insert, *case)

    def test_empty_payloads_add_no_piece(self):
        f = MatrixForest(b=10)
        for _ in range(3):
            forest_insert(f, BoolMat.empty(6, 6))
        assert len(f) == 0 and f.piece_bound() == 0
        forest_insert(f, BoolMat.from_entries(6, 6, [(0, 1)]))
        forest_insert(f, BoolMat.empty(6, 6))
        assert f.sizes() == [1]
        with pytest.raises(ValueError):
            forest_insert(f, BoolMat.empty(5, 5))

    @pytest.mark.parametrize("b, bound", [(2, 8), (10, 3)])
    def test_piece_bound_after_equal_sized_inserts(self, b, bound):
        f = MatrixForest(b=b)
        for j in range(200):
            forest_insert(f, BoolMat.from_entries(20, 20, [(j // 20, j % 20)]))
        assert sum(f.sizes()) == 200
        assert len(f) <= f.piece_bound() == bound  # 1 + floor(log_b(200))

    def test_difference_trivial_cases(self):
        d = random_boolmat(random.Random(3), 10, 10, 0.3)
        assert forest_difference(d, MatrixForest(b=10)) == d
        f = MatrixForest(b=10)
        forest_insert(f, d)
        assert forest_difference(d, f).nnz == 0

    def test_difference_matches_materialized_union(self):
        rng = random.Random(5)
        for _ in range(30):
            f = MatrixForest(b=10)
            acc = BoolMat.empty(10, 10)
            for _ in range(rng.randrange(1, 6)):
                m = random_boolmat(rng, 10, 10, 0.25)
                forest_insert(f, m)
                acc = union(acc, m)
            d = random_boolmat(rng, 10, 10, 0.3)
            assert forest_difference(d, f) == difference(d, acc)

    def test_fresh_bundle_is_copied_before_a_merge_into_it(self):
        """A fresh delta's bundle that becomes the larger side of a b=2
        merge keeps its matrices: the fold goes into a copy of it."""

        def fresh(entries):
            m = BoolMat.from_entries(6, 6, entries)
            return _Bundle({(PLAIN, lay): convert(m, lay) for lay in (ROW, COL)}, owned=False)

        def snapshot(bundle):
            return {key: m.copy().lines for key, m in bundle.copies.items()}

        f = MatrixForest(b=2, combine=_fold)
        inserted = [fresh([(0, 0)]), fresh([(1, 2), (4, 1)]), fresh([(0, 3), (5, 0), (5, 5)])]
        before = [snapshot(bundle) for bundle in inserted]
        everything = BoolMat.empty(6, 6)
        pieces = []
        for bundle in inserted:
            f.insert(bundle)
            everything = union(everything, bundle.copies[(PLAIN, ROW)])
            assert [snapshot(b) for b in inserted] == before
            pieces.append(f.payloads())
        assert pieces[0] == inserted[:1]  # no merge yet: the piece is the delta's
        # 1 + 2 entries, then 3 + 3: each fold goes into a copy of the fresh bundle
        for got, fresh_bundle in zip(pieces[1:], inserted[1:]):
            assert len(got) == 1 and got[0].owned and got[0] is not fresh_bundle
        assert f.sizes() == [6]
        for (_, lay), m in f.payloads()[0].copies.items():
            assert m == everything and m.layout == lay and m.nnz == 6

    @pytest.mark.parametrize("n", [12, 1000])
    def test_an_earlier_pass_piece_is_folded_in_place(self, monkeypatch, n):
        """Once its pass is over, a delta's bundle owns its copies: a later,
        smaller delta is merged into it in place (in bit form for n=12, in
        list form for n=1000), and nothing is copied."""
        rng = random.Random(31)
        store = _Store(nonterminal("S"), [(PLAIN, ROW), (PLAIN, COL)], (PLAIN, ROW), n, 0, lazy=True)
        # at most 15 entries, then 2 in rows the first leaves empty: the
        # forest (b = 10) merges them
        first = BoolMat.from_entries(n, n, [(rng.randrange(1, n - 1), rng.randrange(n)) for _ in range(15)])
        second = BoolMat.from_entries(n, n, [(0, 1), (n - 1, 2)])
        store.insert(_DeltaView(first, store), None)
        [bundle] = store.bundles
        copied = []
        real_copy = BoolMat.copy
        monkeypatch.setattr(BoolMat, "copy", lambda m: copied.append(m) or real_copy(m))
        store.insert(_DeltaView(second, store), None)
        assert store.bundles == [bundle] and bundle.owned and not copied
        everything = union(first, second)
        for key in store.keys:
            [piece] = store.pieces(key)
            assert piece == everything and piece.layout == key[1] and piece.nnz == everything.nnz

    @pytest.mark.parametrize("n, most", [(12, 40), (1000, 300)])
    def test_materialized_forest_is_the_union_of_untouched_pieces(self, n, most):
        """A lazy store's matrix is the union of its forest pieces (in bit
        form for n=12, in list form for n=1000), and building it changes
        no piece nor shares a line list with one."""
        rng = random.Random(29)
        store = _Store(nonterminal("S"), [(PLAIN, ROW), (PLAIN, COL)], (PLAIN, ROW), n, 0, lazy=True)
        assert store.materialized() == BoolMat.empty(n, n)
        everything = BoolMat.empty(n, n)
        # sizes more than 10 times apart, so the forest (b = 10) keeps both
        for count in (most, most // 20):
            drawn = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
            d = difference(BoolMat.from_entries(n, n, drawn), everything)
            store.insert(_DeltaView(d, store), None)
            everything = union(everything, d)
        pieces = store.pieces((PLAIN, ROW))
        assert len(pieces) >= 2 and all(p.bits == (n == 12) for p in pieces)
        before = [(p.copy(), p.nnz) for p in pieces]
        got = store.materialized()
        assert got == everything and got.nnz == everything.nnz
        for line in [] if got.bits else got.lines.values():
            line.append(n)
        assert all(p == copy and p.nnz == nnz for p, (copy, nnz) in zip(pieces, before))

class TestSolve:
    def test_empty_graph_no_epsilon(self):
        """No seed entry: every variant stops before its first iteration."""
        g = ensure_wcnf(preset("dyck"))
        graph = load_graph("# no edges\n", g)
        for v in VARIANT_NAMES:
            r = solve(graph, g, VariantFlags.named(v))
            assert r.triples() == frozenset()
            assert (r.iterations, r.counters.spgemm_calls) == (0, 0), v

    def test_dyck_path(self):
        g = ensure_wcnf(preset("dyck"))
        graph = chain_graph(4)
        oracle = oracle_solve(graph, g)
        for v in ALL_VARIANTS:
            r = solve(graph, g, VariantFlags.named(v))
            assert r.matrices.pairs(g.start) == [(0, 4), (1, 3)]
            assert r.triples() == oracle

    def test_cscvf_balanced_call_ret(self):
        g = ensure_wcnf(preset("cscvf-wcnf"))
        graph = load_graph("0 call_f1 1\n1 a 2\n2 ret_f1 3\n", g)
        oracle = triple_names(oracle_solve(graph, g))
        for v in ALL_VARIANTS:
            got = triple_names(solve(graph, g, VariantFlags.named(v)).triples())
            assert got == oracle
            assert ("A", 0, 3) in got
            assert all(("A", i, i) in got for i in range(4))
            assert ("AH", 0, 3) in got

    @pytest.mark.parametrize("name", ["dyck", "fica-opt", "cscvf-wcnf", "fsjpt-opt"])
    def test_variants_agree_with_oracle(self, name):
        g = ensure_wcnf(preset(name))
        rng = random.Random(PRESET_NAMES.index(name))
        for _ in range(8):
            graph = random_instance(g, rng, max_vertices=14, max_edges=40, max_indices=3)
            want = oracle_solve(graph, g)
            for v in ALL_VARIANTS:
                assert solve(graph, g, VariantFlags.named(v)).triples() == want

    def test_unit_rule_between_families_runs_block_to_block(self):
        """``B_[i] -> A_[i]`` under ``indexed_blocks`` pours A's block row
        into B's as it stands, and every variant still agrees with the
        oracle on graphs with two or more tags."""
        g = ensure_wcnf(
            parse_grammar("S -> B_[i] x | S a\nB_[i] -> A_[i]\nA_[i] -> c_[i] | A_[i] a\n")
        )
        a, b = nonterminal("A", "i"), nonterminal("B", "i")
        assert build_rule_plan(g, indexed_blocks=True).unit_steps == (
            UnitStep((b, HBLOCK), (a, HBLOCK), transform=None),
        )
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randint(2, 10)
            text = sized_graph_text(g, rng, n, rng.randint(1, 30), rng.randint(2, 4))
            graph = load_graph(f"0 c_f0 1\n1 c_f1 0\n{text}", g)
            want = oracle_solve(graph, g)
            for v in VARIANT_NAMES:
                assert solve(graph, g, VariantFlags.named(v)).triples() == want

    def test_monotone_iterations_and_bound(self):
        g = ensure_wcnf(preset("cscvf-wcnf"))
        rng = random.Random(11)
        graph = random_instance(g, rng, max_vertices=10, max_edges=30, max_indices=2)
        sizes = []
        bound = len(g.nonterminals) * graph.vertex_count**2

        def hook(it, m_old, delta, m):
            sizes.append(total_nnz(m))
            # the delta really is new content
            for (sym, repr_), dm in delta.mats.items():
                old = m_old.mats.get((sym, repr_))
                if old is not None:
                    assert not (dm.entry_set() & old.entry_set())

        r = solve(graph, g, VariantFlags.named("ma1"), iteration_hook=hook)
        assert sizes == sorted(sizes)
        assert r.iterations <= bound + 1

    @pytest.mark.parametrize("variant, preset_name", [
        pytest.param("ma", "dyck", id="ma"),
        pytest.param("ma1", "dyck", id="ma1"),
        pytest.param("ma1234", "dyck", id="ma1234"),
        # indexed: a pass's delta is kept as a forest piece that later
        # passes merge into in place
        pytest.param("ma1234", "cscvf-wcnf", id="ma1234-cscvf-wcnf"),
        pytest.param("ma1234", "fsca-wcnf", id="ma1234-fsca-wcnf"),
    ])
    def test_hook_views_stay_snapshots(self, variant, preset_name):
        """The stores change in place after the hook returns; the views it
        was handed, its delta included, must not."""
        g = ensure_wcnf(preset(preset_name))
        if preset_name == "dyck":
            graph = chain_graph(12)
        else:
            graph = random_instance(g, random.Random(5), max_vertices=30, max_edges=90, max_indices=3)
        kept = []

        def hook(it, m_old, delta, m):
            kept.append([(v, v.to_triples()) for v in (m_old, delta, m)])

        solve(graph, g, VariantFlags.named(variant), iteration_hook=hook)
        assert len(kept) > 2 and kept[-1][0][1]
        for views in kept:
            for view, triples in views:
                assert view.to_triples() == triples

    @pytest.mark.parametrize("preset_name", ["cscvf-wcnf", "fsca-wcnf"])
    def test_result_phase_holds_canonical_copies_only(self, monkeypatch, preset_name):
        """When the result is first built, every store of a ``ma1234``
        solve holds its canonical copies and no other: the column-major
        and vertical-block copies only the loop read are let go."""
        g = ensure_wcnf(preset(preset_name))
        graph = random_instance(g, random.Random(5), max_vertices=30, max_edges=90, max_indices=3)
        stores, held = [], []
        real_init, real_materialized = _Store.__init__, _Store.materialized

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            stores.append(self)

        def materialized(self):
            if not held:
                held.extend((st.canonical, {key for el in st.bundles for key in el.copies})
                            for st in stores)
            return real_materialized(self)

        monkeypatch.setattr(_Store, "__init__", init)
        monkeypatch.setattr(_Store, "materialized", materialized)
        r = solve(graph, g, VariantFlags.named("ma1234"))
        assert r.triples() == oracle_solve(graph, g)
        # the loop kept other copies, so letting them go is tested
        assert any(key != st.canonical for st in stores for key in st.keys)
        assert len(held) == len(stores) and any(keys for _, keys in held)
        assert all(keys <= {canonical} for canonical, keys in held)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("preset_name", ["dyck", "cscvf-wcnf"])
    def test_seeds_are_freed_by_iteration_two(self, monkeypatch, variant, preset_name):
        """The seed collection is not kept beside the stores: once the
        first deltas are inserted, nothing holds it."""
        g = ensure_wcnf(preset(preset_name))
        graph = random_instance(g, random.Random(26), max_vertices=12, max_edges=40, max_indices=3)
        seeds = []

        def recording(*args, **kwargs):
            m = initial_matrix(*args, **kwargs)
            seeds.append(weakref.ref(m))
            return m

        alive = {}
        hook = lambda it, *_: alive.setdefault(it, seeds[0]() is not None)  # noqa: E731
        monkeypatch.setattr(cflr.solver, "initial_matrix", recording)
        r = solve(graph, g, VariantFlags.named(variant), iteration_hook=hook)
        assert len(seeds) == 1 and r.iterations >= 2
        assert not any(alive[it] for it in range(2, r.iterations + 1))

    @pytest.mark.parametrize("variant", ["ma", "ma1", "ma14"])
    @pytest.mark.parametrize("preset_name", ["dyck", "cscvf-wcnf"])
    def test_each_seed_matrix_is_freed_by_iteration_two(self, monkeypatch, variant, preset_name):
        """Without lazy union each seed is merged into its store, so once
        the first deltas are inserted no seed matrix is alive: no delta of
        a past pass, and no name the loop left bound, holds one.  (Under
        lazy union a seed is kept as a forest piece.)"""

        class _Tracked(BoolMat):
            __slots__ = ("__weakref__",)

        g = ensure_wcnf(preset(preset_name))
        graph = random_instance(g, random.Random(26), max_vertices=12, max_edges=40, max_indices=3)
        seeds = []

        def recording(*args, **kwargs):
            nm = initial_matrix(*args, **kwargs)
            tracked = {
                key: _Tracked(m.rows, m.cols, m.layout, m.lines, m.bits)
                for key, m in nm.mats.items()
            }
            seeds.extend(weakref.ref(m) for m in tracked.values())
            return type(nm)(nm.size, nm.universe, tracked)

        alive = {}
        hook = lambda it, *_: alive.setdefault(it, [s() is not None for s in seeds])  # noqa: E731
        monkeypatch.setattr(cflr.solver, "initial_matrix", recording)
        r = solve(graph, g, VariantFlags.named(variant), iteration_hook=hook)
        assert seeds and r.iterations >= 2 and all(alive[1])
        assert not any(any(alive[it]) for it in range(2, r.iterations + 1))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_every_variant_runs_the_delta_skeleton(self, variant):
        """Each iteration of every variant, the baseline included, starts
        from a nonempty delta disjoint from m_old, with m = m_old | delta;
        the next iteration's m_old is that m, and the last m is the result."""
        g = ensure_wcnf(preset("cscvf-wcnf"))
        graph = random_instance(g, random.Random(26), max_vertices=12, max_edges=40, max_indices=3)
        seen = []

        def hook(it, m_old, delta, m):
            seen.append((it, m_old.to_triples(), delta.to_triples(), m.to_triples()))

        r = solve(graph, g, VariantFlags.named(variant), iteration_hook=hook)
        assert r.iterations > 2
        assert [it for it, *_ in seen] == list(range(1, r.iterations + 1))
        previous = frozenset()
        for _, old, delta, m in seen:
            assert delta and not (delta & old)
            assert m == old | delta
            assert old == previous
            previous = m
        assert previous == r.triples() == oracle_solve(graph, g)

    def test_delta_identity_per_iteration(self):
        rng = random.Random(13)
        for name in ("dyck", "fica-opt"):
            g = ensure_wcnf(preset(name))
            for _ in range(4):
                graph = random_instance(g, rng, max_vertices=10, max_edges=25)

                def hook(it, m_old, delta, m):
                    lhs = (
                        semiring_matmul(m_old, delta, g)
                        .union(semiring_matmul(delta, m, g))
                        .union(semiring_matmul(m_old, m_old, g))
                    )
                    rhs = semiring_matmul(m, m, g)
                    assert lhs.logical_eq(rhs)

                solve(graph, g, VariantFlags.named("ma1"), iteration_hook=hook)

    def test_dual_format_changes_layouts_only(self):
        """dual_format changes which copies are kept and which way each
        product runs, never which products are formed or what they visit."""
        rng = random.Random(29)
        for name in PRESET_NAMES:
            g = ensure_wcnf(preset(name))
            for blocks in (False, True):
                for _ in range(5):
                    graph = random_instance(g, rng, max_vertices=12, max_edges=35, max_indices=3)
                    flags = [
                        VariantFlags(delta=True, dual_format=d, indexed_blocks=blocks)
                        for d in (False, True)
                    ]
                    plain, dual = (solve(graph, g, f) for f in flags)
                    assert plain.triples() == dual.triples()
                    assert plain.iterations == dual.iterations
                    assert plain.counters.spgemm_calls == dual.counters.spgemm_calls
                    assert plain.counters.scalar_ops == dual.counters.scalar_ops

    def test_delta_pushes_where_it_pays_and_keeps_the_work(self, monkeypatch):
        """Under ma1 the first delta of ``A`` is the epsilon diagonal, a
        line for each of the 60 vertices, and it drives a product with each
        ``ret_f*``, which has a few edges: those products push, through the
        delta's column view.  The products are the same as when every one
        pulled: the counters and iterations are those recorded before any
        delta pushed."""
        g = ensure_wcnf(preset("cscvf-wcnf"))
        graph = load_graph(sized_graph_text(g, random.Random(1), 60, 90, 4), g)
        assert len(graph.index_universe) == 4
        spgemm = cflr.sparse.spgemm
        pushed = []  # (delta lines, right lines + entries) of each push

        def recording(a, b, *args, **kwargs):
            # without dual_format only a delta is ever a column-major left
            if a.layout == COL:
                pushed.append((len({i for col in a.lines.values() for i in col}), len(b.lines) + b.nnz))
            return spgemm(a, b, *args, **kwargs)

        monkeypatch.setattr(cflr.sparse, "spgemm", recording)
        r = solve(graph, g, VariantFlags.named("ma1"))
        assert pushed and all(lines > right for lines, right in pushed), pushed
        assert r.triples() == oracle_solve(graph, g)
        assert r.counters.as_dict() == {"spgemm_calls": 160, "scalar_ops": 136, "union_entries": 418}
        assert r.iterations == 8

    def test_no_transpose_for_a_product_with_an_empty_operand(self, monkeypatch):
        """``S``'s delta, the epsilon diagonal, drives ``S -> S B``, but no
        rule ever produces ``B``: the product is empty whichever way it
        runs, so the delta is never transposed for it."""
        g = ensure_wcnf(parse_grammar("start: S\nS -> eps | S B\nB -> B c\n"))
        graph = load_graph("0 c 1\n1 c 2\n2 c 3\n", g)
        convert = cflr.sparse.convert
        converted = []

        def recording(*args, **kwargs):
            converted.append(args)
            return convert(*args, **kwargs)

        monkeypatch.setattr(cflr.sparse, "convert", recording)
        r = solve(graph, g, VariantFlags.named("ma1"))
        assert r.triples() == oracle_solve(graph, g) and r.counters.spgemm_calls
        assert converted == []

    def test_counters_deterministic(self):
        g = ensure_wcnf(preset("fsjpt-opt"))
        rng = random.Random(19)
        graph = random_instance(g, rng, max_vertices=15, max_edges=45, max_indices=3)
        for v in ALL_VARIANTS:
            runs = [solve(graph, g, VariantFlags.named(v)) for _ in range(2)]
            assert runs[0].counters == runs[1].counters
            assert runs[0].triples() == runs[1].triples()
            assert runs[0].iterations == runs[1].iterations

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_lazy_union_keeps_spgemm_calls_per_iteration_flat(self, n):
        """On a dyck chain every delta holds one entry; the forest must still
        keep a logarithmic piece count, so ma1234 multiplies about as often
        per iteration as ma1 (6 calls) instead of once per stored delta."""
        g = ensure_wcnf(preset("dyck"))
        graph = chain_graph(n)
        per_iter = {}
        for v in ("ma1", "ma1234"):
            r = solve(graph, g, VariantFlags.named(v))
            per_iter[v] = r.counters.spgemm_calls / r.iterations
        assert per_iter["ma1234"] <= 2 * per_iter["ma1"], per_iter

    def test_dual_format_walks_delta_lines_flat_in_chain_length(self, monkeypatch):
        """Under dual_format the delta drives every product, M_old * delta
        through the outer product: on a dyck chain the driving lines the
        products of one iteration walk do not grow with the chain, although
        M does."""
        g = ensure_wcnf(preset("dyck"))
        spgemm = cflr.sparse.spgemm
        walked: list[list[int]] = []  # per iteration: outer, row-by-row

        def counting_spgemm(a, b, *args, **kwargs):
            outer = a.layout == COL
            walked[-1][not outer] += len((b if outer else a).lines)
            return spgemm(a, b, *args, **kwargs)

        monkeypatch.setattr(cflr.sparse, "spgemm", counting_spgemm)
        most = {}
        for n in (64, 256, 1024):
            walked.clear()
            r = solve(
                chain_graph(n), g, VariantFlags.named("ma1234"),
                iteration_hook=lambda *_: walked.append([0, 0]),
            )
            assert r.iterations == len(walked) == n
            # iteration 1 multiplies by the seeds, the chain's n edges
            assert sum(walked[0]) <= 2 * n
            most[n] = [max(w[side] for w in walked[1:]) for side in (0, 1)]
        assert most[64] == most[256] == most[1024] == [1, 1], most

    @pytest.mark.parametrize("variant", ["ma1", "ma14"])
    def test_row_by_row_lookups_flat_in_chain_length(self, monkeypatch, variant):
        """Without dual_format, M_old * delta runs row by row, driven by M,
        and skips every row of M that misses the delta before walking it:
        on a dyck chain the lookups into an operand's lines per iteration
        do not grow with the chain, although M does."""
        g = ensure_wcnf(preset("dyck"))
        spgemm = cflr.sparse.spgemm
        looked: list[int] = []  # per iteration

        class Counted(dict):
            def get(self, *args):
                looked[-1] += 1
                return dict.get(self, *args)

        def counted(m):
            c = BoolMat(m.rows, m.cols, m.layout, Counted(m.lines), m.bits)
            # the int copy a list-form operand gives a bit-form driver
            c._ints = Counted(m.int_lines())
            return c

        def counting_spgemm(a, b, *args, **kwargs):
            return spgemm(counted(a), counted(b), *args, **kwargs)

        monkeypatch.setattr(cflr.sparse, "spgemm", counting_spgemm)
        most = {}
        for n in (64, 256, 1024):
            looked.clear()
            r = solve(
                chain_graph(n), g, VariantFlags.named(variant),
                iteration_hook=lambda *_: looked.append(0),
            )
            assert r.iterations == len(looked) == n
            # iteration 1 multiplies by the seeds, the chain's n edges
            assert looked[0] <= 2 * n
            most[n] = max(looked[1:])
        assert most[64] == most[256] == most[1024], most

    def test_deadline_raises(self):
        g = ensure_wcnf(preset("dyck"))
        graph = chain_graph(512)
        with pytest.raises(SolveTimeout):
            solve(graph, g, VariantFlags.named("ma"), deadline=time.monotonic())

    @pytest.mark.parametrize(
        "grammar, variant, slow",
        [
            (preset("dyck"), "ma", "spgemm"),
            (preset("dyck"), "ma1", "spgemm"),
            # S is the only result symbol and has two steps: the deadline
            # passes between two products of one symbol
            (parse_grammar("start: S\nS -> a S | b S | a | b\n"), "ma1", "spgemm"),
            # two unit rules: the deadline passes in the first one
            (UNITS, "ma1", "add"),
            # iteration 1 inserts four deltas and masks three accumulators:
            # the deadline passes in the first insert or the first mask
            (UNITS, "ma1", "merge_into"),
            (UNITS, "ma1", "masked"),
            # X has no seed, so its delta is absent in iteration 1: the
            # products of its two M_old * delta steps, one after the other,
            # are formed on two empty stand-ins
            (parse_grammar("start: S\nS -> a X | b X | c\nX -> S d\n"), "ma1", "spgemm of empties"),
        ],
        ids=[
            "ma", "ma1", "ma1-two-steps-of-one-symbol", "ma1-unit-rule-step",
            "ma1-store-insert", "ma1-mask", "ma1-absent-delta-step",
        ],
    )
    def test_deadline_holds_inside_an_iteration(self, monkeypatch, grammar, variant, slow):
        """The deadline passes during the first product (or the first
        unit-rule step, store insert or mask, or the first product of two
        empty operands) of iteration 1; the solve stops before the next
        one (in the last case, before any later product)."""
        g = ensure_wcnf(grammar)
        graph = chain_graph(16)
        owner = cflr.sparse.Accumulator if slow == "add" else cflr.sparse
        empties = slow == "spgemm of empties"
        name = "spgemm" if empties else slow
        original = getattr(owner, name)
        now = [0.0]
        calls = []
        iterations = []

        def slow_call(*args, **kwargs):
            # with ``empties`` the clock first moves at a product of two
            # empty operands, and every product after it is counted
            if not empties or now[0] or not (args[0].nnz or args[1].nnz):
                calls.append(iterations[-1])
                now[0] += 10.0
            return original(*args, **kwargs)

        monkeypatch.setattr(cflr.solver.time, "monotonic", lambda: now[0])
        monkeypatch.setattr(owner, name, slow_call)
        hook = lambda it, *_: iterations.append(it)  # noqa: E731
        solve(graph, g, VariantFlags.named(variant), iteration_hook=hook)
        per_iteration = calls.count(1)
        now[0] = 0.0
        calls.clear()
        iterations.clear()
        with pytest.raises(SolveTimeout):
            solve(graph, g, VariantFlags.named(variant), deadline=5.0, iteration_hook=hook)
        assert iterations == [1]
        assert 1 == len(calls) < per_iteration

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("case", ["dyck-chain", "cscvf-wcnf"])
    def test_every_counted_product_is_one_spgemm_call(self, monkeypatch, case, variant):
        """Each product the solve counts, those on an absent delta's empty
        stand-ins included, is one ``sparse.spgemm`` call, and the triples
        are the oracle's."""
        g = ensure_wcnf(preset("dyck" if case == "dyck-chain" else case))
        if case == "dyck-chain":
            graph = chain_graph(40)
        else:
            graph = load_graph(sized_graph_text(g, random.Random(11), 40, 90, 3), g)
        original = cflr.sparse.spgemm
        calls = []

        def counted(a, b, *args, **kwargs):
            calls.append(bool(a.nnz and b.nnz))
            return original(a, b, *args, **kwargs)

        monkeypatch.setattr(cflr.sparse, "spgemm", counted)
        r = solve(graph, g, VariantFlags.named(variant))
        assert len(calls) == r.counters.spgemm_calls
        assert not all(calls)  # some products have an empty operand
        assert r.triples() == oracle_solve(graph, g)

    @pytest.mark.parametrize("variant", ["ma", "ma1", "ma14"])
    def test_result_matrices_keep_no_int_copy(self, monkeypatch, variant):
        """Under these variants a result matrix is its store's canonical
        copy, whose list lines products read as ints: that int copy is
        dropped with the store's other copies."""
        g = ensure_wcnf(preset("fsca-wcnf"))
        graph = load_graph(sized_graph_text(g, random.Random(1), 350, 900, 10), g)
        original = BoolMat.int_lines
        copied = []

        def int_lines(m):
            copied.append(not m.bits)
            return original(m)

        monkeypatch.setattr(BoolMat, "int_lines", int_lines)
        r = solve(graph, g, VariantFlags.named(variant))
        assert any(copied)  # products read some list-form copy as ints
        assert all(m._ints is None for m in r.matrices.mats.values())

    def test_result_reports_executed_grammar(self):
        g = ensure_wcnf(preset("cscvf-wcnf"))
        graph = load_graph("0 call_f1 1\n1 ret_f1 0\n", g)
        r_plain = solve(graph, g, VariantFlags.named("ma1"))
        assert not r_plain.grammar.is_indexed  # expanded
        r_block = solve(graph, g, VariantFlags.named("ma14"))
        assert r_block.grammar.is_indexed


# every valid combination of the four flags: the baseline with and without
# indexed blocks, and delta with each subset of the other three
FLAG_COMBINATIONS = [VariantFlags(indexed_blocks=b) for b in (False, True)] + [
    VariantFlags(delta=True, dual_format=d, lazy_union=z, indexed_blocks=b)
    for d in (False, True)
    for z in (False, True)
    for b in (False, True)
]


def test_the_flag_combinations_are_every_valid_one():
    valid = set()
    for values in itertools.product((False, True), repeat=4):
        try:
            valid.add(VariantFlags(*values))
        except ValueError:
            pass
    assert len(FLAG_COMBINATIONS) == len(set(FLAG_COMBINATIONS)) == 10
    assert set(FLAG_COMBINATIONS) == valid
    assert {VariantFlags.named(v) for v in VARIANT_NAMES} < valid


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_flag_combination_agrees_with_the_oracle(name):
    """Each combination reads its operands differently: column copies that
    are not kept, forests of several pieces, block transforms."""
    g = ensure_wcnf(preset(name))
    rng = random.Random(40 + PRESET_NAMES.index(name))
    for _ in range(4):
        n = rng.randint(8, 16)
        graph = load_graph(sized_graph_text(g, rng, n, 3 * n, rng.randint(1, 3)), g)
        want = oracle_solve(graph, g)
        for flags in FLAG_COMBINATIONS:
            assert solve(graph, g, flags).triples() == want, flags


# S -> A_[i] b collapses its left operand, S -> b A_[i] its right one,
# S -> A_[i] is a collapsing unit rule and A_[i] -> A_[i] B_[i] puts its
# left operand on the block diagonal
TRANSFORMS = parse_grammar(
    "start: S\nS -> A_[i] b | b A_[i] | A_[i] | S S\n"
    "A_[i] -> A_[i] B_[i] | c_[i]\nB_[i] -> d_[i] | B_[i] e\n"
)


def test_operand_transforms_are_applied_only_where_a_step_has_one(monkeypatch):
    """Operands without a transform are read as they are: the dyck chain,
    whose steps have none, makes no transform call under any variant.  The
    diag and collapse steps of an indexed grammar still agree with the
    oracle under ma14 and ma1234, which keep the families in blocks."""
    applied = []
    original = cflr.solver._apply_transform

    def counting(m, transform, n, k):
        applied.append(transform)
        return original(m, transform, n, k)

    monkeypatch.setattr(cflr.solver, "_apply_transform", counting)
    dyck = ensure_wcnf(preset("dyck"))
    graph = chain_graph(32)
    want = oracle_solve(graph, dyck)
    for v in VARIANT_NAMES:
        assert solve(graph, dyck, VariantFlags.named(v)).triples() == want, v
    assert applied == []

    g = ensure_wcnf(TRANSFORMS)
    plan = build_rule_plan(g, indexed_blocks=True)
    assert {st.left_transform for st in plan.bin_steps} >= {"diag", "collapse"}
    assert "collapse" in {st.right_transform for st in plan.bin_steps}
    assert "collapse" in {u.transform for u in plan.unit_steps}
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randint(2, 16)
        graph = load_graph(sized_graph_text(g, rng, n, rng.randint(n, 4 * n), rng.randint(1, 3)), g)
        want = oracle_solve(graph, g)
        for v in ("ma14", "ma1234"):
            assert solve(graph, g, VariantFlags.named(v)).triples() == want, v
    assert {"diag", "collapse"} <= set(applied)
