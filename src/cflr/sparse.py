"""Sparse Boolean matrices in row- or column-major layout, plus the kernel
operations the reachability engine is built from: Boolean matrix product in
both orientations, element-wise union/difference, layout conversion, the
block-matrix reshapes used for indexed symbol families, a mutable
accumulator that gathers many products and is then complement-masked, and
an in-place merge of a disjoint delta into a stored matrix.

A matrix stores, per nonempty line (row in row-major, column in column-major),
a sorted duplicate-free list of positions.  Empty lines are simply absent, so
storage is proportional to nnz even for very wide block matrices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

ROW = "row"
COL = "col"

ROW_BY_ROW = "row-by-row"
COL_BY_COL = "column-by-column"


@dataclass
class OpCounter:
    """Deterministic work counters: a machine-independent cost signal.

    scalar_ops counts every (left-entry, matching right-line-entry) pair a
    multiplication visits.  union_entries counts every entry
    :func:`merge_into` inserts into a stored matrix (once per stored copy),
    every stored entry a :func:`union` reads, and every entry an
    :class:`Accumulator` received (repeats included), counted when
    :func:`masked` empties it; the tests of the mask itself are not
    counted.  Each is a sum of per-operation totals, so it depends only on
    the operations performed, not on the order they ran in.
    """

    spgemm_calls: int = 0
    scalar_ops: int = 0
    union_entries: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "spgemm_calls": self.spgemm_calls,
            "scalar_ops": self.scalar_ops,
            "union_entries": self.union_entries,
        }


class BoolMat:
    """Sparse Boolean matrix, immutable by convention.

    ``lines`` maps a row index (row-major) or column index (column-major) to
    a sorted duplicate-free list of the true positions on that line; keys
    come in no particular order.  A matrix owns the dict it is built from
    (no copy is made).  All operations return fresh matrices with dicts of
    their own and never mutate their inputs, except :func:`merge_into`,
    which updates the matrix it merges into in place.  Only the solver's
    stores are passed to it, so a matrix a caller built or received is
    never changed.
    """

    __slots__ = ("rows", "cols", "layout", "lines", "nnz")

    def __init__(self, rows: int, cols: int, layout: str, lines: dict[int, list[int]]):
        if layout not in (ROW, COL):
            raise ValueError(f"unknown layout {layout!r}")
        self.rows = rows
        self.cols = cols
        self.layout = layout
        self.lines = lines
        self.nnz = sum(map(len, lines.values()))

    # -- construction -------------------------------------------------

    @classmethod
    def empty(cls, rows: int, cols: int, layout: str = ROW) -> "BoolMat":
        return cls(rows, cols, layout, {})

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int]], layout: str = ROW
    ) -> "BoolMat":
        buckets: dict[int, set[int]] = {}
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of bounds for {rows}x{cols}")
            if layout == ROW:
                buckets.setdefault(i, set()).add(j)
            else:
                buckets.setdefault(j, set()).add(i)
        return cls(rows, cols, layout, {k: sorted(v) for k, v in buckets.items()})

    @classmethod
    def identity(cls, n: int, layout: str = ROW) -> "BoolMat":
        return cls(n, n, layout, {i: [i] for i in range(n)})

    def copy(self) -> "BoolMat":
        """An independent copy: no line list is shared."""
        lines = {k: list(v) for k, v in self.lines.items()}
        return BoolMat(self.rows, self.cols, self.layout, lines)

    # -- queries ------------------------------------------------------

    def get(self, i: int, j: int) -> bool:
        line, pos = (i, j) if self.layout == ROW else (j, i)
        lst = self.lines.get(line)
        if not lst:
            return False
        at = bisect_left(lst, pos)
        return at < len(lst) and lst[at] == pos

    def entries(self) -> Iterator[tuple[int, int]]:
        """Yield (row, col) pairs line by line, lines in any order."""
        if self.layout == ROW:
            for i, lst in self.lines.items():
                for j in lst:
                    yield (i, j)
        else:
            for j, lst in self.lines.items():
                for i in lst:
                    yield (i, j)

    def entry_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.entries())

    def coordinate_text(self) -> str:
        """Debug serialization: sorted ``row col`` lines."""
        return "\n".join(f"{i} {j}" for i, j in sorted(self.entries()))

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        """Logical equality: same shape and same true entries, any layout."""
        if not isinstance(other, BoolMat):
            return NotImplemented
        if self.shape() != other.shape() or self.nnz != other.nnz:
            return False
        if self.layout == other.layout:
            return self.lines == other.lines
        return self.entry_set() == other.entry_set()

    def __hash__(self):  # logical eq makes hashing a trap
        raise TypeError("BoolMat is not hashable")

    def __repr__(self) -> str:
        return f"BoolMat({self.rows}x{self.cols}, {self.layout}, nnz={self.nnz})"


def _merge_sorted(a: list[int], b: list[int]) -> list[int]:
    if not a:
        return list(b)
    if not b:
        return list(a)
    out: list[int] = []
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        x, y = a[ia], b[ib]
        if x < y:
            out.append(x)
            ia += 1
        elif x > y:
            out.append(y)
            ib += 1
        else:
            out.append(x)
            ia += 1
            ib += 1
    if ia < la:
        out.extend(a[ia:])
    if ib < lb:
        out.extend(b[ib:])
    return out


def _diff_sorted(a: list[int], b: list[int]) -> list[int]:
    if not b:
        return list(a)
    bs = set(b)
    return [x for x in a if x not in bs]


class Accumulator:
    """A matrix under construction: per line, the positions added so far,
    unsorted and possibly repeated.  Unlike :class:`BoolMat` it is mutable.
    ``spgemm(..., into=acc)`` and :meth:`add` append to it, and
    :func:`masked` turns it into a :class:`BoolMat`, so a result gathered
    from many products is sorted and deduplicated once."""

    __slots__ = ("rows", "cols", "layout", "lines")

    def __init__(self, rows: int, cols: int, layout: str = ROW):
        if layout not in (ROW, COL):
            raise ValueError(f"unknown layout {layout!r}")
        self.rows = rows
        self.cols = cols
        self.layout = layout
        self.lines: dict[int, list[int]] = {}

    def sink(self, rows: int, cols: int, layout: str):
        """A function ``put(line, positions)`` adding one line of a
        rows x cols matrix stored in ``layout``.  A matrix of this
        accumulator's shape is added as it is, re-bucketed entry by entry
        when its layout differs.  A row-major n x k*n accumulator of
        horizontal blocks also takes a k*n x n matrix of vertical blocks:
        entry (t*n + u, w) goes to (u, t*n + w), as in
        :func:`vertical_to_horizontal`."""
        lines = self.lines
        get = lines.get
        if (rows, cols) == (self.rows, self.cols):
            if layout == self.layout:

                def put(k, ps):
                    line = get(k)
                    if line is None:
                        lines[k] = list(ps)
                    else:
                        line.extend(ps)

            else:

                def put(k, ps):
                    for p in ps:
                        line = get(p)
                        if line is None:
                            lines[p] = [k]
                        else:
                            line.append(k)

            return put
        n = self.rows
        if (rows, cols) != (self.cols, n) or self.layout != ROW or (n and self.cols % n):
            raise ValueError(
                f"cannot add a {rows}x{cols} matrix to a {self.rows}x{self.cols} "
                f"{self.layout}-major accumulator"
            )
        if layout == ROW:

            def put(i, js):
                u = i % n
                off = i - u
                moved = [off + j for j in js]
                line = get(u)
                if line is None:
                    lines[u] = moved
                else:
                    line.extend(moved)

        else:

            def put(j, is_):
                for i in is_:
                    u = i % n
                    line = get(u)
                    if line is None:
                        lines[u] = [i - u + j]
                    else:
                        line.append(i - u + j)

        return put

    def add(self, m: BoolMat) -> None:
        """Add every entry of ``m`` (see :meth:`sink` for the shapes)."""
        put = self.sink(m.rows, m.cols, m.layout)
        for k, line in m.lines.items():
            put(k, line)


def spgemm(
    a: BoolMat,
    b: BoolMat,
    orientation: str = ROW_BY_ROW,
    counter: OpCounter | None = None,
    into: Accumulator | None = None,
) -> BoolMat | None:
    """Exact Boolean product a @ b.

    Row-by-row iterates the left operand's lines (both operands row-major,
    row-major result); column-by-column iterates the right operand's lines
    (both column-major, column-major result).  Cost is therefore driven by
    the operand on the orientation's natural driving side, which is what
    makes a sparse delta cheap when placed there.

    With ``into`` the product's lines are added to that accumulator, moved
    to its layout and shape as :meth:`Accumulator.sink` says, and nothing
    is returned.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape()} @ {b.shape()}")
    if orientation == ROW_BY_ROW:
        if a.layout != ROW or b.layout != ROW:
            raise ValueError("row-by-row requires both operands row-major")
        driver, other, layout = a, b, ROW
    elif orientation == COL_BY_COL:
        if a.layout != COL or b.layout != COL:
            raise ValueError("column-by-column requires both operands column-major")
        driver, other, layout = b, a, COL
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    target = into if into is not None else Accumulator(a.rows, b.cols, layout)
    put = target.sink(a.rows, b.cols, layout)
    sops = 0
    # an empty operand makes an empty product: the driver is not walked
    if a.nnz and b.nnz:
        oget = other.lines.get
        for i, dline in driver.lines.items():
            acc: set[int] = set()
            for k in dline:
                ol = oget(k)
                if ol:
                    acc.update(ol)
                    sops += len(ol)
            if acc:
                put(i, acc)
    if counter is not None:
        counter.spgemm_calls += 1
        counter.scalar_ops += sops
    if into is None:
        # every line was put once, from a set
        return BoolMat(a.rows, b.cols, layout, {i: sorted(v) for i, v in target.lines.items()})
    return None


def masked(
    acc: Accumulator, pieces: Iterable[BoolMat], counter: OpCounter | None = None
) -> BoolMat:
    """The complement-masked result C<not M> of everything gathered in
    ``acc``: each line becomes sorted(set(line) - that line of every
    piece), and lines left empty are dropped.  The pieces together are M;
    they share the accumulator's shape and layout.  ``acc`` is emptied.
    The entries it received count as ``union_entries``."""
    masks = []
    for p in pieces:
        if p.shape() != (acc.rows, acc.cols) or p.layout != acc.layout:
            raise ValueError(
                f"mask {p!r} does not match the {acc.rows}x{acc.cols} "
                f"{acc.layout}-major accumulator"
            )
        if p.nnz:
            masks.append(p.lines.get)
    lines = acc.lines
    if counter is not None:
        counter.union_entries += sum(map(len, lines.values()))
    out: dict[int, list[int]] = {}
    while lines:
        k, line = lines.popitem()
        keep = set(line)
        for get in masks:
            got = get(k)
            if got:
                keep.difference_update(got)
                if not keep:
                    break
        if keep:
            out[k] = sorted(keep)
    return BoolMat(acc.rows, acc.cols, acc.layout, out)


def merge_into(d: BoolMat, m: BoolMat, counter: OpCounter | None = None) -> None:
    """Add every entry of ``d`` to ``m`` in place.  ``d`` must be disjoint
    from ``m`` and share its shape and layout.  A line new to ``m`` gets a
    copy of d's line; an existing line is replaced by the two lines
    concatenated and sorted (timsort merges the two sorted runs), so the
    cost is that of d's lines, whatever the size of ``m``.  ``d`` is not
    changed and shares no list with ``m`` afterwards.  The entries of ``d``
    count as ``union_entries``."""
    if m.shape() != d.shape():
        raise ValueError(f"shape mismatch: {m.shape()} vs {d.shape()}")
    if m.layout != d.layout:
        raise ValueError("merge_into requires matching layouts")
    if not d.nnz:
        return
    lines = m.lines
    get = lines.get
    for k, dline in d.lines.items():
        line = get(k)
        if line is None:
            lines[k] = list(dline)
        else:
            # a new list of exactly the merged size: an extended list would
            # keep its growth slack for the rest of the solve
            line = line + dline
            line.sort()
            lines[k] = line
    m.nnz += d.nnz
    if counter is not None:
        counter.union_entries += d.nnz


def union(a: BoolMat, b: BoolMat, counter: OpCounter | None = None) -> BoolMat:
    """Element-wise union.  Operands must share shape and layout."""
    if a.shape() != b.shape():
        raise ValueError(f"shape mismatch: {a.shape()} vs {b.shape()}")
    if a.layout != b.layout:
        raise ValueError("union requires matching layouts")
    if counter is not None:
        counter.union_entries += a.nnz + b.nnz
    if not b.nnz:
        return BoolMat(a.rows, a.cols, a.layout, dict(a.lines))
    if not a.nnz:
        return BoolMat(a.rows, a.cols, a.layout, dict(b.lines))
    out: dict[int, list[int]] = {}
    for k in a.lines.keys() | b.lines.keys():
        out[k] = _merge_sorted(a.lines.get(k, []), b.lines.get(k, []))
    return BoolMat(a.rows, a.cols, a.layout, out)


def difference(a: BoolMat, b: BoolMat) -> BoolMat:
    """Entries of ``a`` absent from ``b``.  Layouts may differ."""
    if a.shape() != b.shape():
        raise ValueError(f"shape mismatch: {a.shape()} vs {b.shape()}")
    if not b.nnz or not a.nnz:
        return BoolMat(a.rows, a.cols, a.layout, dict(a.lines))
    out: dict[int, list[int]] = {}
    if a.layout == b.layout:
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


def convert(a: BoolMat, layout: str) -> BoolMat:
    """Return the same logical matrix stored in ``layout``."""
    if layout not in (ROW, COL):
        raise ValueError(f"unknown layout {layout!r}")
    if a.layout == layout:
        return a
    buckets: dict[int, list[int]] = {}
    # source lines are walked in ascending key order, so every bucket
    # comes out sorted
    for k in sorted(a.lines):
        for pos in a.lines[k]:
            buckets.setdefault(pos, []).append(k)
    return BoolMat(a.rows, a.cols, layout, buckets)


def _remap(a: BoolMat, rows: int, cols: int, move) -> BoolMat:
    """Rebuild ``a`` with every entry (i, j) moved to move(i, j)."""
    buckets: dict[int, set[int]] = {}
    if a.layout == ROW:
        for i, line in a.lines.items():
            for j in line:
                ni, nj = move(i, j)
                buckets.setdefault(ni, set()).add(nj)
    else:
        for j, line in a.lines.items():
            for i in line:
                ni, nj = move(i, j)
                buckets.setdefault(nj, set()).add(ni)
    return BoolMat(rows, cols, a.layout, {k: sorted(v) for k, v in buckets.items()})


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


def block_diagonalize(v: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Spread a vertical block matrix onto the block diagonal: entry
    (t*n + u, w) becomes (t*n + u, t*n + w)."""
    n = block_size
    if v.rows != universe * n or v.cols != n:
        raise ValueError(f"expected {universe * n}x{n} vertical blocks, got {v.shape()}")
    return _remap(v, universe * n, universe * n, lambda i, j: (i, (i // n) * n + j))


def block_collapse(h: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Union the column blocks of a horizontal block matrix: entry
    (u, t*n + w) becomes (u, w)."""
    n = block_size
    if h.rows != n or h.cols != universe * n:
        raise ValueError(f"expected {n}x{universe * n} horizontal blocks, got {h.shape()}")
    return _remap(h, n, n, lambda i, j: (i, j % n))


def horizontal_to_vertical(h: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Re-index per-slot blocks from horizontal to vertical storage."""
    n = block_size
    if h.rows != n or h.cols != universe * n:
        raise ValueError(f"expected {n}x{universe * n} horizontal blocks, got {h.shape()}")
    return _remap(h, universe * n, n, lambda i, j: ((j // n) * n + i, j % n))


def vertical_to_horizontal(v: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Inverse of :func:`horizontal_to_vertical`."""
    n = block_size
    if v.rows != universe * n or v.cols != n:
        raise ValueError(f"expected {universe * n}x{n} vertical blocks, got {v.shape()}")
    return _remap(v, n, universe * n, lambda i, j: (i % n, (i // n) * n + j))
