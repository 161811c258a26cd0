import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cflr.sparse
from cflr.sparse import (
    COL,
    ROW,
    Accumulator,
    BoolMat,
    OpCounter,
    block_collapse,
    block_diagonalize,
    convert,
    horizontal_to_vertical,
    _positions,
    masked,
    merge_into,
    spgemm,
    union,
)
from _support import (
    block_offset,
    coordinate_text,
    difference,
    from_dense,
    identity,
    random_boolmat,
    remapped_block_moves,
    _remap,
    to_dense,
    vertical_to_horizontal,
)


# the two directions of a product, each with the layout of the left operand
# that selects it; the right operand is row-major in both
LEFT_LAYOUT = {"row-by-row": ROW, "outer": COL}


def shuffled(m, rng):
    """A twin of ``m`` whose line keys were inserted in shuffled order."""
    keys = list(m.lines)
    rng.shuffle(keys)
    if len(keys) > 1 and keys == sorted(keys):
        keys.reverse()
    return BoolMat(m.rows, m.cols, m.layout, {k: list(m.lines[k]) for k in keys})


def entry_lists(rows, cols):
    return st.lists(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        max_size=rows * cols,
    )


class TestSpgemm:
    def test_identity(self):
        x = BoolMat.from_entries(3, 4, [(0, 1), (2, 3), (2, 0)])
        assert spgemm(identity(3), x) == x

    def test_single_path_composition(self):
        a = BoolMat.from_entries(3, 3, [(0, 1)])
        b = BoolMat.from_entries(3, 3, [(1, 2)])
        assert spgemm(a, b).entry_set() == {(0, 2)}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spgemm(BoolMat.empty(2, 3), BoolMat.empty(4, 2))

    def test_layout_precondition(self):
        a = BoolMat.from_entries(3, 3, [(0, 1)], layout=COL)
        b = BoolMat.from_entries(3, 3, [(1, 2)])
        with pytest.raises(ValueError):
            spgemm(convert(a, ROW), convert(b, COL))
        with pytest.raises(ValueError):
            spgemm(a, convert(b, COL))

    @given(
        st.integers(1, 32),
        st.integers(1, 32),
        st.integers(1, 32),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_product_both_orientations(self, n, m, p, rng):
        a = random_boolmat(rng, n, m, density=0.25)
        b = random_boolmat(rng, m, p, density=0.25)
        want = from_dense(to_dense(a) @ to_dense(b))
        assert spgemm(a, b) == want
        got_outer = spgemm(convert(a, COL), b)
        assert got_outer.layout == ROW
        assert got_outer == want

    def test_inputs_unmodified(self):
        a = random_boolmat(random.Random(0), 8, 8)
        b = random_boolmat(random.Random(1), 8, 8)
        snap_a, snap_b = a.entry_set(), b.entry_set()
        spgemm(a, b)
        union(a, b)
        difference(a, b)
        convert(a, COL)
        assert a.entry_set() == snap_a and b.entry_set() == snap_b

    def test_counter_determinism(self):
        rng1, rng2 = random.Random(42), random.Random(42)
        counters = []
        for rng in (rng1, rng2):
            c = OpCounter()
            a = random_boolmat(rng, 16, 16)
            b = random_boolmat(rng, 16, 16)
            spgemm(a, b, c)
            union(a, b, c)
            counters.append(c)
        assert counters[0] == counters[1]

    def test_scalar_ops_counts_visited_pairs(self):
        # one left entry hitting a three-entry right line: three pairs visited
        a = BoolMat.from_entries(2, 2, [(0, 1)])
        b = BoolMat.from_entries(2, 3, [(1, 0), (1, 1), (1, 2)])
        c = OpCounter()
        spgemm(a, b, c)
        assert c.spgemm_calls == 1 and c.scalar_ops == 3


    def test_empty_operand_skips_the_driver(self):
        class Unwalkable(dict):
            def items(self):
                raise AssertionError("the driving operand was walked")

            __iter__ = values = items

        for left_layout in (ROW, COL):
            full = BoolMat.from_entries(4, 4, [(0, 1), (2, 3), (3, 0)])
            full.lines = Unwalkable(full.lines)
            # the driver is the left operand row-by-row, the right one in
            # the outer product
            if left_layout == ROW:
                a, b, mismatched = full, BoolMat.empty(4, 4), (full, BoolMat.empty(3, 4))
            else:
                a, b, mismatched = BoolMat.empty(4, 4, COL), full, (BoolMat.empty(4, 3, COL), full)
            c = OpCounter()
            got = spgemm(a, b, c)
            assert got.nnz == 0 and got.layout == ROW and not got.lines
            assert (c.spgemm_calls, c.scalar_ops) == (1, 0)
            acc = Accumulator(4, 4)
            assert spgemm(a, b, c, into=acc) is None
            assert not acc.lines and c.spgemm_calls == 2
            with pytest.raises(ValueError):
                spgemm(*mismatched, c)
            with pytest.raises(ValueError):
                spgemm(a, b, c, into=Accumulator(4, 5))
            assert c.spgemm_calls == 2  # a call that raised is not counted


class TestUnionDifference:
    def test_union_with_empty_is_identity(self):
        a = BoolMat.from_entries(4, 4, [(1, 2), (3, 0)])
        assert union(a, BoolMat.empty(4, 4)) == a

    def test_union_idempotent(self):
        a = BoolMat.from_entries(1, 1, [(0, 0)])
        assert union(a, a).entry_set() == {(0, 0)}

    def test_difference_trivial(self):
        a = BoolMat.from_entries(4, 4, [(1, 2), (3, 0)])
        assert difference(a, BoolMat.empty(4, 4)) == a
        assert difference(a, a).nnz == 0

    @given(st.integers(1, 16), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_bitset(self, n, rng):
        a = random_boolmat(rng, n, n, density=0.3)
        b = random_boolmat(rng, n, n, density=0.3)
        assert union(a, b) == from_dense(to_dense(a) | to_dense(b))
        assert difference(a, b) == from_dense(to_dense(a) & ~to_dense(b))

    @given(st.integers(1, 12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_set_algebra_properties(self, n, rng):
        a = random_boolmat(rng, n, n, density=0.3)
        b = random_boolmat(rng, n, n, density=0.3)
        u, d = union(a, b), difference(a, b)
        assert difference(u, b).entry_set() <= a.entry_set()
        assert a.entry_set() <= u.entry_set()
        assert not d.entry_set() & b.entry_set()

    def test_union_nnz_bound(self):
        a = BoolMat.from_entries(3, 3, [(0, 0), (1, 1)])
        b = BoolMat.from_entries(3, 3, [(1, 1), (2, 2)])
        assert union(a, b).nnz <= a.nnz + b.nnz

    def test_cross_layout_difference(self):
        a = BoolMat.from_entries(4, 4, [(0, 1), (2, 3), (1, 1)])
        b = convert(BoolMat.from_entries(4, 4, [(2, 3)]), COL)
        assert difference(a, b).entry_set() == {(0, 1), (1, 1)}

    def test_shape_and_layout_errors(self):
        with pytest.raises(ValueError):
            union(BoolMat.empty(2, 2), BoolMat.empty(3, 3))
        with pytest.raises(ValueError):
            union(BoolMat.empty(2, 2, ROW), BoolMat.empty(2, 2, COL))
        with pytest.raises(ValueError):
            difference(BoolMat.empty(2, 2), BoolMat.empty(2, 3))


def _union_minus(products, to_target, pieces, rows, cols, layout):
    """Reference for gather-then-mask: union the products, each converted
    to the target, then subtract every piece."""
    want = BoolMat.empty(rows, cols, layout)
    for p in products:
        want = union(want, to_target(p))
    for piece in pieces:
        want = difference(want, piece)
    return want


def _assert_same(got, want):
    """Equal and in the same layout (so the same lines), with every line
    non-empty, sorted and duplicate-free."""
    assert got == want and got.layout == want.layout
    assert all(line and line == sorted(set(line)) for line in got.lines.values())


class TestGatherAndMask:
    """Products gathered in an Accumulator and masked once equal
    difference(union of the products, converted to the target layout or
    representation, the stored pieces)."""

    @pytest.mark.parametrize(
        "direction, target",
        [("row-by-row", ROW), ("outer", ROW), ("row-by-row", COL), ("outer", COL)],
    )
    @given(
        n=st.integers(1, 10),
        count=st.integers(0, 3),
        masks=st.integers(0, 3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_plain_products(self, direction, target, n, count, masks, rng):
        pairs = [
            (
                random_boolmat(rng, n, n, rng.random() * 0.5, LEFT_LAYOUT[direction]),
                random_boolmat(rng, n, n, rng.random() * 0.5),
            )
            for _ in range(count)
        ]
        pieces = [random_boolmat(rng, n, n, rng.random() * 0.6, target) for _ in range(masks)]
        pieces.append(BoolMat.empty(n, n, target))
        acc = Accumulator(n, n)
        for a, b in pairs:
            assert spgemm(a, b, into=acc) is None
        # the accumulator and its mask are row-major; a store's column copy
        # of the delta is converted from the row-major result
        got = convert(masked(acc, [convert(p, ROW) for p in pieces]), target)
        want = _union_minus(
            [spgemm(a, b) for a, b in pairs],
            lambda p: convert(p, target),
            pieces,
            n,
            n,
            target,
        )
        _assert_same(got, want)
        assert not acc.lines  # masking empties the accumulator

    @pytest.mark.parametrize("direction", LEFT_LAYOUT)
    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 3),
        count=st.integers(0, 3),
        masks=st.integers(0, 2),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_vertical_products_move_to_horizontal_slots(
        self, direction, n, k, count, masks, rng
    ):
        # keep-l products V[c] = V[x] . plain, plus horizontal unit pieces
        pairs = [
            (
                random_boolmat(rng, k * n, n, rng.random() * 0.5, LEFT_LAYOUT[direction]),
                random_boolmat(rng, n, n, rng.random() * 0.5),
            )
            for _ in range(count)
        ]
        units = [random_boolmat(rng, n, k * n, 0.2) for _ in range(rng.randrange(2))]
        pieces = [random_boolmat(rng, n, k * n, rng.random() * 0.6) for _ in range(masks)]
        pieces.append(BoolMat.empty(n, k * n))
        acc = Accumulator(n, k * n)
        for a, b in pairs:
            spgemm(a, b, into=acc)
        for u in units:
            acc.add(u)
        got = masked(acc, pieces)
        want = _union_minus(
            [vertical_to_horizontal(spgemm(a, b), n, k) for a, b in pairs]
            + units,
            lambda p: convert(p, ROW),
            pieces,
            n,
            k * n,
            ROW,
        )
        _assert_same(got, want)

    def test_empty_pieces_and_products(self):
        acc = Accumulator(4, 4)
        spgemm(BoolMat.empty(4, 4), BoolMat.from_entries(4, 4, [(0, 1)]), into=acc)
        assert not acc.lines
        assert masked(acc, [BoolMat.empty(4, 4)]).nnz == 0
        acc.add(BoolMat.from_entries(4, 4, [(2, 3), (2, 1)]))
        got = masked(acc, [BoolMat.empty(4, 4), BoolMat.empty(4, 4)])
        assert got.lines == {2: [1, 3]}

    def test_a_row_the_mask_covers_is_dropped(self):
        a = BoolMat.from_entries(3, 3, [(0, 1), (1, 1)])
        b = BoolMat.from_entries(3, 3, [(1, 0), (1, 2)])
        acc = Accumulator(3, 3)
        c = OpCounter()
        spgemm(a, b, c, into=acc)
        spgemm(a, b, c, into=acc)  # the same entries again
        assert (c.spgemm_calls, c.scalar_ops) == (2, 8)
        covers_row_0 = BoolMat.from_entries(3, 3, [(0, 0), (0, 2), (2, 2)])
        got = masked(acc, [covers_row_0, BoolMat.from_entries(3, 3, [(1, 2)])], c)
        assert got.lines == {1: [0]}
        assert c.union_entries == 8  # every entry received, repeats included

    def test_shape_errors(self):
        acc = Accumulator(2, 6)
        with pytest.raises(ValueError):
            acc.add(BoolMat.empty(3, 2))
        with pytest.raises(ValueError):
            acc.add(BoolMat.empty(6, 2, COL))
        with pytest.raises(ValueError):
            masked(acc, [BoolMat.empty(2, 6, COL)])


class TestMergeInto:
    """The in-place merge of a disjoint delta equals union(M, D)."""

    @pytest.mark.parametrize("layout", [ROW, COL])
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_union_and_shares_nothing(self, layout, rows, cols, rng):
        m = shuffled(random_boolmat(rng, rows, cols, rng.random() * 0.6, layout), rng)
        d = shuffled(
            difference(random_boolmat(rng, rows, cols, rng.random() * 0.6, layout), m), rng
        )
        want = union(m, d)
        d_lines = {k: list(v) for k, v in d.lines.items()}
        c = OpCounter()
        assert merge_into(d, m, c) is None
        assert m == want and m.layout == layout
        assert all(line == sorted(set(line)) for line in m.lines.values())
        assert m.nnz == want.nnz == sum(map(len, m.lines.values()))
        assert c.union_entries == d.nnz
        assert d.lines == d_lines  # d is not changed
        for line in m.lines.values():
            line.append(cols + rows)
        assert d.lines == d_lines  # and shares no list with m

    @pytest.mark.parametrize("d_bits", [False, True])
    def test_stored_lines_have_no_spare_slot(self, d_bits):
        """A line that merge_into puts into a list-form matrix, and every
        line of a copy, is a list of exactly its length: a stored line
        keeps any spare slot for the rest of the solve."""
        empty, slot = sys.getsizeof([]), sys.getsizeof([None]) - sys.getsizeof([])

        def exact(line):
            return sys.getsizeof(line) == empty + slot * len(line)

        # lines of 1, 3 and 5 positions, new to m or merged into its lines
        d = BoolMat.from_entries(
            8, 8, [(0, 1), (1, 2), (1, 5), (1, 7), (3, 4), *((2, j) for j in range(5))]
        )
        m = BoolMat(8, 8, ROW, {3: list([0, 6]), 4: list([1])})
        assert not all(map(exact, m.lines.values()))
        merge_into(d.in_form(d_bits), m)
        assert m.nnz == 13 and all(exact(m.lines[key]) for key in d.lines)
        assert all(map(exact, m.copy().lines.values()))

    def test_touches_only_the_delta_keys(self):
        class Unlistable(dict):
            def items(self, *args):
                raise AssertionError("merge_into walked or rebuilt all of M's lines")

            keys = values = __iter__ = clear = update = items

        m = BoolMat.from_entries(6, 6, [(2, 0), (4, 1)])
        m.lines = Unlistable(m.lines)
        # new lines on both sides of M's keys, and one line M already has
        merge_into(BoolMat.from_entries(6, 6, [(0, 3), (3, 3), (4, 0), (5, 5)]), m)
        assert dict(dict.items(m.lines)) == {0: [3], 2: [0], 3: [3], 4: [0, 1], 5: [5]}
        merge_into(BoolMat.empty(6, 6), m)
        assert m.nnz == 6

    def test_shape_and_layout_errors(self):
        with pytest.raises(ValueError):
            merge_into(BoolMat.empty(2, 3), BoolMat.empty(3, 2))
        with pytest.raises(ValueError):
            merge_into(BoolMat.empty(2, 2, COL), BoolMat.empty(2, 2))


class TestConvert:
    def test_involution(self):
        a = random_boolmat(random.Random(5), 9, 7)
        assert convert(convert(a, COL), ROW) == a

    def test_storage_structure(self):
        a = BoolMat.from_entries(6, 6, [(0, 5), (3, 5)])
        c = convert(a, COL)
        assert c.layout == COL
        assert c.lines == {5: [0, 3]}

    @given(st.integers(1, 20), st.integers(1, 20), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_nnz_preserved(self, r, c, rng):
        a = random_boolmat(rng, r, c, density=0.3)
        assert convert(a, COL).nnz == a.nnz


class TestBlocks:
    def test_offset_zero_slot_keeps_coordinates(self):
        a = BoolMat.from_entries(4, 4, [(1, 2), (3, 3)])
        h = block_offset(a, 0, 3, "horizontal")
        assert h.shape() == (4, 12)
        assert h.entry_set() == a.entry_set()

    def test_offset_coordinate_arithmetic(self):
        a = BoolMat.from_entries(10, 10, [(1, 2)])
        assert block_offset(a, 3, 5, "horizontal").entry_set() == {(1, 32)}
        assert block_offset(a, 3, 5, "vertical").entry_set() == {(31, 2)}

    def test_offset_nnz_preserved_and_range_checked(self):
        a = random_boolmat(random.Random(2), 6, 6)
        assert block_offset(a, 2, 4, "vertical").nnz == a.nnz
        with pytest.raises(ValueError):
            block_offset(a, 4, 4, "horizontal")

    def test_diagonalize_single_block_is_identity_transform(self):
        v = BoolMat.from_entries(5, 5, [(2, 3)])
        assert block_diagonalize(v, 5, 1).entry_set() == {(2, 3)}

    def test_diagonalize_coordinate_arithmetic(self):
        v = BoolMat.from_entries(20, 10, [(12, 3)])
        assert block_diagonalize(v, 10, 2).entry_set() == {(12, 13)}

    def test_diagonalized_product_equals_per_slot_products(self):
        rng = random.Random(9)
        for _ in range(25):
            n, k = rng.randint(1, 10), rng.randint(1, 4)
            left = [random_boolmat(rng, n, n, 0.3) for _ in range(k)]
            right = [random_boolmat(rng, n, n, 0.3) for _ in range(k)]

            def stack(mats):
                ents = []
                for t, m in enumerate(mats):
                    ents += [(t * n + i, j) for i, j in m.entries()]
                return BoolMat.from_entries(k * n, n, ents)

            got = spgemm(block_diagonalize(stack(left), n, k), stack(right))
            want_ents = []
            for t in range(k):
                dense = to_dense(left[t]) @ to_dense(right[t])
                want_ents += [
                    (t * n + int(i), int(j)) for i, j in zip(*np.nonzero(dense))
                ]
            assert got == BoolMat.from_entries(k * n, n, want_ents)

    def test_collapse_single_block(self):
        h = BoolMat.from_entries(4, 4, [(0, 1), (2, 2)])
        assert block_collapse(h, 4, 1) == h

    def test_collapse_unions_slots(self):
        h = BoolMat.from_entries(3, 9, [(0, 1), (0, 7)])  # slot 0 and slot 2, both (0,1)
        assert block_collapse(h, 3, 3).entry_set() == {(0, 1)}

    def test_collapse_equals_slice_union(self):
        rng = random.Random(13)
        for _ in range(25):
            n, k = rng.randint(1, 8), rng.randint(1, 4)
            h = random_boolmat(rng, n, k * n, 0.2)
            dense = to_dense(h)
            want = np.zeros((n, n), dtype=bool)
            for t in range(k):
                want |= dense[:, t * n : (t + 1) * n]
            assert block_collapse(h, n, k) == from_dense(want)

    def test_horizontal_vertical_round_trip(self):
        rng = random.Random(21)
        h = random_boolmat(rng, 6, 24, 0.2)
        v = horizontal_to_vertical(h, 6, 4)
        assert v.shape() == (24, 6) and v.nnz == h.nnz
        assert vertical_to_horizontal(v, 6, 4) == h

    @pytest.mark.parametrize("bits", [False, True])
    def test_column_major_horizontal_blocks_are_refused(self, bits):
        """The engine moves only row-major blocks, so column-major input is
        an error, as it is for an accumulator."""
        h = BoolMat.from_entries(2, 6, [(0, 1), (1, 4)], COL).in_form(bits)
        with pytest.raises(ValueError, match="row-major"):
            horizontal_to_vertical(h, 2, 3)

    @given(
        name=st.sampled_from(["block_diagonalize", "block_collapse", "horizontal_to_vertical"]),
        n=st.integers(1, 6),
        k=st.integers(1, 4),
        layout=st.sampled_from([ROW, COL]),
        bits=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_moves_match_the_entry_by_entry_remap(self, name, n, k, layout, bits, data):
        if name == "horizontal_to_vertical":
            layout = ROW  # column-major input is refused
        rows, cols = (k * n, n) if name == "block_diagonalize" else (n, k * n)
        entries = data.draw(entry_lists(rows, cols))
        m = BoolMat.from_entries(rows, cols, entries, layout).in_form(bits)
        got = getattr(cflr.sparse, name)(m, n, k)
        want = _remap(m, *remapped_block_moves(n, k)[name])
        assert got == want and got.shape() == want.shape()
        assert got.layout == layout and not got.bits
        for line in got.lines.values():
            assert line == sorted(set(line))
            # exact-size: no spare slots left by appends
            assert sys.getsizeof(line) == sys.getsizeof(line[:])


class TestDebugSerialization:
    def test_golden_coordinate_text(self):
        m = BoolMat.from_entries(4, 4, [(3, 0), (0, 2), (0, 1)])
        assert coordinate_text(m) == "0 1\n0 2\n3 0"
        assert coordinate_text(convert(m, COL)) == "0 1\n0 2\n3 0"


class TestUnorderedKeys:
    """Line keys may come in any order: a matrix whose keys were inserted
    in shuffled order gives every kernel the results of its sorted twin."""

    @pytest.mark.parametrize("layout", [ROW, COL])
    @given(
        n=st.integers(1, 8),
        k=st.integers(1, 3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_shuffled_twin_gives_the_same_results(self, layout, n, k, rng):
        other = COL if layout == ROW else ROW

        def twins(rows, cols, lay=layout):
            m = random_boolmat(rng, rows, cols, rng.random() * 0.6, lay)
            return m, shuffled(m, rng)

        (a, sa), (b, sb), (bo, sbo) = twins(n, n), twins(n, n), twins(n, n, other)
        _assert_same(convert(sa, other), convert(a, other))
        _assert_same(union(sa, sb), union(a, b))
        _assert_same(difference(sa, sb), difference(a, b))
        _assert_same(difference(sa, sbo), difference(a, bo))
        for la in (ROW, COL):
            x, sx = convert(a, la), convert(sa, la)
            y, sy = convert(b, ROW), convert(sb, ROW)
            _assert_same(spgemm(sx, sy), spgemm(x, y))
            x, sx = convert(b, la), convert(sb, la)
            y, sy = convert(a, ROW), convert(sa, ROW)
            _assert_same(spgemm(sx, sy), spgemm(x, y))
        got = []
        for x, y in ((sa, sb), (a, b)):
            x, y = convert(x, ROW), convert(y, ROW)
            acc = Accumulator(n, n)
            acc.add(x)
            acc.add(y)
            got.append(masked(acc, [y]))
        _assert_same(*got)
        (h, sh), (v, sv) = twins(n, k * n), twins(k * n, n)
        for slot in range(k):
            for side in ("horizontal", "vertical"):
                _assert_same(block_offset(sa, slot, k, side), block_offset(a, slot, k, side))
        _assert_same(block_collapse(sh, n, k), block_collapse(h, n, k))
        if layout == ROW:  # column-major input is refused
            _assert_same(horizontal_to_vertical(sh, n, k), horizontal_to_vertical(h, n, k))
        _assert_same(block_diagonalize(sv, n, k), block_diagonalize(v, n, k))
        _assert_same(vertical_to_horizontal(sv, n, k), vertical_to_horizontal(v, n, k))
        assert sorted(sa.entries()) == sorted(a.entries())
        assert sa == a and a == sa and sa == convert(a, other) and convert(sa, other) == a

    def test_every_result_owns_its_dict(self):
        n, k = 4, 2
        a = BoolMat.from_entries(n, n, [(0, 1), (2, 3), (3, 3)])
        b = BoolMat.from_entries(n, n, [(1, 2), (3, 0)])
        e = BoolMat.empty(n, n)
        ac, bc = convert(a, COL), convert(b, COL)
        h = block_offset(a, 1, k, "horizontal")
        v = horizontal_to_vertical(h, n, k)
        acc = Accumulator(n, n)
        acc.add(a)
        results = [
            ((a, b), spgemm(a, b)),
            ((ac, b), spgemm(ac, b)),
            ((a, e), spgemm(a, e)),
            ((acc, b), masked(acc, [b])),
            ((a, b), union(a, b)),
            ((a, e), union(a, e)),
            ((e, a), union(e, a)),
            ((a, b), difference(a, b)),
            ((a, bc), difference(a, bc)),
            ((a, e), difference(a, e)),
            ((e, a), difference(e, a)),
            ((a,), convert(a, COL)),
            ((ac,), convert(ac, ROW)),
            ((a,), block_offset(a, 0, k, "vertical")),
            ((h,), block_collapse(h, n, k)),
            ((h,), horizontal_to_vertical(h, n, k)),
            ((v,), block_diagonalize(v, n, k)),
            ((v,), vertical_to_horizontal(v, n, k)),
            ((a,), a.copy()),
        ]
        for inputs, r in results:
            assert all(r.lines is not x.lines for x in inputs), (inputs, r)
        assert convert(a, ROW) is a  # the documented exception


FORMS = (False, True)


def in_forms(ms, forms):
    return [m.in_form(bits) for m, bits in zip(ms, forms)]


class TestBitForm:
    """A matrix whose lines are ints gives every kernel the entries and the
    work counts of its list-form twin, in every mix of forms."""

    @pytest.mark.parametrize("layout", [ROW, COL])
    @given(
        n=st.integers(1, 8),
        k=st.integers(1, 3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_queries_and_reshapes(self, layout, n, k, rng):
        other = COL if layout == ROW else ROW
        a = random_boolmat(rng, n, n, rng.random() * 0.6, layout)
        ab = a.in_form(True)
        assert ab.bits and not a.bits and ab.in_form(True) is ab
        assert ab.nnz == a.nnz and ab.lines.keys() == a.lines.keys()
        assert all(isinstance(x, int) and x for x in ab.lines.values())
        _assert_same(ab.in_form(False), a)
        assert sorted(ab.entries()) == sorted(a.entries())
        assert all(ab.get(i, j) == a.get(i, j) for i in range(n) for j in range(n))
        assert ab == a and a == ab and ab == convert(a, other)
        assert ab.copy() == a and ab.copy().bits
        assert ab.key_mask() == sum(1 << key for key in a.lines) == a.key_mask()
        assert ab.int_lines() is ab.lines and a.int_lines() == ab.lines
        for lay in (ROW, COL):
            got = convert(ab, lay)
            assert got.bits and got == convert(a, lay)
        h = random_boolmat(rng, n, k * n, rng.random() * 0.6, layout)
        v = random_boolmat(rng, k * n, n, rng.random() * 0.6, layout)
        hb, vb = h.in_form(True), v.in_form(True)
        for slot in range(k):
            for side in ("horizontal", "vertical"):
                _assert_same(block_offset(ab, slot, k, side), block_offset(a, slot, k, side))
        _assert_same(block_collapse(hb, n, k), block_collapse(h, n, k))
        if layout == ROW:  # column-major input is refused
            _assert_same(horizontal_to_vertical(hb, n, k), horizontal_to_vertical(h, n, k))
        _assert_same(block_diagonalize(vb, n, k), block_diagonalize(v, n, k))
        _assert_same(vertical_to_horizontal(vb, n, k), vertical_to_horizontal(v, n, k))

    @pytest.mark.parametrize("direction", LEFT_LAYOUT)
    @pytest.mark.parametrize("driver_bits", FORMS)
    @pytest.mark.parametrize("other_bits", FORMS)
    @given(
        n=st.integers(1, 9),
        count=st.integers(1, 3),
        masks=st.integers(0, 3),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_products_and_masks(self, direction, driver_bits, other_bits, n, count, masks, rng):
        pairs = [
            (
                random_boolmat(rng, n, n, rng.random() * 0.6, LEFT_LAYOUT[direction]),
                random_boolmat(rng, n, n, rng.random() * 0.6),
            )
            for _ in range(count)
        ]
        # the left operand drives row-by-row, the right one the outer product
        forms = (driver_bits, other_bits) if direction == "row-by-row" else (other_bits, driver_bits)
        want_c = OpCounter()
        want = [spgemm(a, b, want_c) for a, b in pairs]
        got_c = OpCounter()
        got = [spgemm(*in_forms(p, forms), got_c) for p in pairs]
        assert got_c == want_c
        for g, w in zip(got, want):
            _assert_same(g, w)
        pieces = [random_boolmat(rng, n, n, rng.random() * 0.6) for _ in range(masks)]
        units = [random_boolmat(rng, n, n, 0.3) for _ in range(rng.randrange(2))]
        results = []
        for acc_bits in FORMS:
            c = OpCounter()
            acc = Accumulator(n, n, bits=acc_bits)
            for p in pairs:
                assert spgemm(*in_forms(p, forms), c, into=acc) is None
            for u in units:
                acc.add(u.in_form(rng.random() < 0.5))
            piece_forms = [rng.random() < 0.5 for _ in pieces]
            results.append((masked(acc, in_forms(pieces, piece_forms), c), c))
            assert not acc and not acc.lines and not acc.received
        (ref, ref_c), (bit, bit_c) = results
        assert not ref.bits and bit.bits
        assert ref_c == bit_c
        _assert_same(bit.in_form(False), ref)
        assert ref == _union_minus(want + units, lambda p: p, pieces, n, n, ROW)

    @pytest.mark.parametrize("direction", LEFT_LAYOUT)
    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 3),
        masks=st.integers(0, 2),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_vertical_products_into_a_bit_accumulator(self, direction, n, k, masks, rng):
        pairs = [
            (
                random_boolmat(rng, k * n, n, rng.random() * 0.6, LEFT_LAYOUT[direction]),
                random_boolmat(rng, n, n, rng.random() * 0.6),
            )
            for _ in range(rng.randrange(1, 4))
        ]
        units = [random_boolmat(rng, n, k * n, 0.2) for _ in range(rng.randrange(2))]
        pieces = [random_boolmat(rng, n, k * n, rng.random() * 0.6) for _ in range(masks)]
        results = []
        for acc_bits in FORMS:
            c = OpCounter()
            acc = Accumulator(n, k * n, bits=acc_bits)
            for a, b in pairs:
                forms = [acc_bits and rng.random() < 0.5 for _ in range(2)]
                spgemm(*in_forms((a, b), forms), c, into=acc)
            for u in units:
                acc.add(u.in_form(acc_bits))
            results.append((masked(acc, in_forms(pieces, [acc_bits] * masks), c), c))
        (ref, ref_c), (bit, bit_c) = results
        assert ref_c == bit_c
        _assert_same(bit.in_form(False), ref)

    @pytest.mark.parametrize("a_bits", FORMS)
    @pytest.mark.parametrize("b_bits", FORMS)
    @given(
        n=st.integers(1, 7),
        k=st.integers(1, 3),
        vertical=st.booleans(),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_outer_matches_row_by_row(self, a_bits, b_bits, n, k, vertical, rng):
        """The outer product of a column-major a and a row-major b gives
        row-by-row's entries, scalar ops and received entries, returned or
        put into a list or bit accumulator, plain or as vertical blocks
        moved into a horizontal accumulator."""
        pairs = [
            (
                random_boolmat(rng, k * n if vertical else n, n, rng.random() * 0.6),
                random_boolmat(rng, n, n, rng.random() * 0.6),
            )
            for _ in range(rng.randrange(1, 4))
        ]
        operands = {
            "row-by-row": [in_forms(p, (a_bits, b_bits)) for p in pairs],
            "outer": [in_forms((convert(a, COL), b), (a_bits, b_bits)) for a, b in pairs],
        }
        shape = (n, k * n) if vertical else (n, n)
        pieces = [random_boolmat(rng, *shape, rng.random() * 0.6) for _ in range(2)]
        for acc_bits in FORMS:
            results = {}
            for direction, ops in operands.items():
                c = OpCounter()
                got = [spgemm(a, b, c) for a, b in ops]
                acc = Accumulator(*shape, bits=acc_bits)
                for a, b in ops:
                    assert spgemm(a, b, c, into=acc) is None
                results[direction] = (got, masked(acc, pieces, c), c)
            (want, want_mask, want_c), (got, got_mask, got_c) = results.values()
            assert got_c == want_c
            for g, w in zip(got, want):
                _assert_same(g, w)
            assert got_mask.bits == want_mask.bits == acc_bits
            assert got_mask.lines == want_mask.lines

    @given(n=st.integers(1, 9), rng=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_column_major_rows_are_rejected(self, n, rng):
        """An accumulator takes row-major rows only, in either form, plain
        or as vertical blocks: no line crosses layouts."""
        m = random_boolmat(rng, n, n, rng.random() * 0.6, COL)
        v = random_boolmat(rng, 2 * n, n, rng.random() * 0.6, COL)
        for bits in FORMS:
            for acc_bits in FORMS:
                acc = Accumulator(n, n, bits=acc_bits)
                with pytest.raises(ValueError):
                    acc.add(m.in_form(bits))
                with pytest.raises(ValueError):
                    Accumulator(n, 2 * n, bits=acc_bits).add(v.in_form(bits))
                assert not acc
                acc.add(convert(m, ROW).in_form(bits))
                got = masked(acc, [BoolMat.empty(n, n).in_form(bits)])
                assert got.layout == ROW and got.bits == acc_bits and got == m

    @given(n=st.integers(1, 9), rng=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_column_major_mask_pieces_are_rejected(self, n, rng):
        """An accumulator masks with row-major pieces only, in either form,
        and a rejected mask leaves its rows in place."""
        m = random_boolmat(rng, n, n, rng.random() * 0.6, COL)
        for bits in FORMS:
            for acc_bits in FORMS:
                acc = Accumulator(n, n, bits=acc_bits)
                acc.add(convert(m, ROW).in_form(bits))
                with pytest.raises(ValueError):
                    masked(acc, [BoolMat.empty(n, n), m.in_form(bits)])
                got = masked(acc, [BoolMat.empty(n, n).in_form(bits)])
                assert got.layout == ROW and got.bits == acc_bits and got == m

    @pytest.mark.parametrize("layout", [ROW, COL])
    @pytest.mark.parametrize("d_bits", FORMS)
    @pytest.mark.parametrize("m_bits", FORMS)
    @given(
        rows=st.integers(1, 10),
        cols=st.integers(1, 10),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_into_and_union(self, layout, d_bits, m_bits, rows, cols, rng):
        m = random_boolmat(rng, rows, cols, rng.random() * 0.6, layout)
        d = difference(random_boolmat(rng, rows, cols, rng.random() * 0.6, layout), m)
        want = union(m, d)
        mf, df = m.in_form(m_bits), d.in_form(d_bits)
        c, uc = OpCounter(), OpCounter()
        got_union = union(mf, df, uc)
        assert got_union.bits == (m_bits or d_bits) and got_union == want
        assert uc.union_entries == m.nnz + d.nnz
        d_lines = dict(df.lines) if d_bits else {k: list(v) for k, v in df.lines.items()}
        keys_before = mf.key_mask()
        mf.int_lines()  # a list-form m now keeps an int view
        merge_into(df, mf, c)
        assert mf.bits == m_bits and mf == want and mf.nnz == want.nnz
        assert c.union_entries == d.nnz
        assert df.lines == d_lines and mf.lines is not df.lines
        assert keys_before | d.key_mask() == mf.key_mask() == sum(1 << k for k in mf.lines)
        # the int view kept with m follows the merge
        assert mf.int_lines() == want.in_form(True).lines
        if not m_bits:
            for line in mf.lines.values():
                line.append(rows + cols)
            assert df.lines == d_lines  # m shares no list with d

    # 0, single bits and ints as wide as the widest stored lines (an
    # indexed family's horizontal rows run to some 6,000 bits)
    @given(
        st.one_of(
            st.just(0),
            st.integers(0, 6000).map(lambda p: 1 << p),
            st.sets(st.integers(0, 6000)).map(lambda ps: sum(1 << p for p in ps)),
            st.integers(0, (1 << 6000) - 1),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_positions_are_the_set_bits_ascending(self, x):
        assert _positions(x) == [p for p in range(x.bit_length()) if x >> p & 1]

    def test_every_result_owns_its_dict(self):
        n, k = 4, 2
        a = BoolMat.from_entries(n, n, [(0, 1), (2, 3), (3, 3)]).in_form(True)
        b = BoolMat.from_entries(n, n, [(1, 2), (3, 0)]).in_form(True)
        ac = convert(a, COL)
        h = block_offset(a, 1, k, "horizontal").in_form(True)
        v = horizontal_to_vertical(h, n, k).in_form(True)
        acc = Accumulator(n, n, bits=True)
        acc.add(a)
        results = [
            ((a, b), spgemm(a, b)),
            ((ac, b), spgemm(ac, b)),
            ((acc, b), masked(acc, [b])),
            ((a, b), union(a, b)),
            ((a, b.in_form(False)), union(a, b.in_form(False))),
            ((a,), convert(a, COL)),
            ((a,), a.in_form(False)),
            ((a,), block_offset(a, 0, k, "vertical")),
            ((h,), block_collapse(h, n, k)),
            ((h,), horizontal_to_vertical(h, n, k)),
            ((v,), block_diagonalize(v, n, k)),
            ((v,), vertical_to_horizontal(v, n, k)),
            ((a,), a.copy()),
        ]
        for inputs, r in results:
            assert all(r.lines is not x.lines for x in inputs), (inputs, r)
