"""Sparse Boolean matrices in row- or column-major layout, plus the kernel
operations the reachability engine is built from: Boolean matrix product,
element-wise union, layout conversion, the block-matrix reshapes used for
indexed symbol families, a mutable row-major accumulator that gathers many
products and is then complement-masked, and an in-place merge of a
disjoint delta into a stored matrix.  Every product and its right operand
are row-major; the left operand's layout picks which operand drives the
product: a row-major one drives it row by row, a column-major one lets
the right operand drive an outer product.

A matrix stores each nonempty line (row in row-major, column in
column-major) in one of two forms: a sorted duplicate-free list of
positions, or one ``int`` whose set bits are the positions (bit form).
Empty lines are simply absent, so list storage is proportional to nnz even
for very wide block matrices, while a dense line is smaller as an int and
its products and masks become big-int OR and AND.  Every kernel accepts
either form in any mix and counts the same work for both.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator

ROW = "row"
COL = "col"


@dataclass
class OpCounter:
    """Deterministic work counters: a machine-independent cost signal.

    scalar_ops counts every (left-entry, matching right-line-entry) pair a
    multiplication visits: the length, or in bit form the popcount, of the
    right line each left entry hits.  union_entries counts every entry
    :func:`merge_into` inserts into a stored matrix (once per stored copy),
    every stored entry a :func:`union` reads, and every entry an
    :class:`Accumulator` received (repeats across puts included), counted
    when :func:`masked` empties it; the tests of the mask itself are not
    counted.  Each is a sum of per-operation totals, so it depends only on
    the operations performed, not on the order they ran in or on the form
    the lines were kept in.
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


def _positions(x: int) -> list[int]:
    """The set bits of ``x``, ascending.  The walk clears the top bit, so
    each step makes ints no wider than what is left of ``x``."""
    out = []
    while x:
        p = x.bit_length() - 1
        out.append(p)
        x ^= 1 << p
    out.reverse()
    return out


def _bitmask(positions: Iterable[int]) -> int:
    """An int with the given bits set."""
    x = 0
    for p in positions:
        x |= 1 << p
    return x


class BoolMat:
    """Sparse Boolean matrix, immutable by convention.

    ``lines`` maps a row index (row-major) or column index (column-major) to
    the true positions on that line: a sorted duplicate-free list, or with
    ``bits`` an ``int`` with those bits set.  Only nonempty lines are keys,
    in no particular order.  A matrix owns the dict it is built from (no
    copy is made).  All operations return fresh matrices with dicts of
    their own and never mutate their inputs, except :func:`merge_into`,
    which updates the matrix it merges into in place.  Only the solver's
    stores are passed to it, so a matrix a caller built or received is
    never changed.
    """

    __slots__ = ("rows", "cols", "layout", "lines", "nnz", "bits", "_keys", "_ints")

    def __init__(
        self,
        rows: int,
        cols: int,
        layout: str,
        lines: dict[int, list[int]] | dict[int, int],
        bits: bool = False,
    ):
        if layout not in (ROW, COL):
            raise ValueError(f"unknown layout {layout!r}")
        self.rows = rows
        self.cols = cols
        self.layout = layout
        self.lines = lines
        self.bits = bits
        self.nnz = sum(map(int.bit_count if bits else len, lines.values()))
        self._keys: int | None = None
        self._ints: dict[int, int] | None = None

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

    def copy(self) -> "BoolMat":
        """An independent copy in the same form: no line list is shared."""
        if self.bits:
            return BoolMat(self.rows, self.cols, self.layout, dict(self.lines), True)
        # a slice allocates exactly the line's length, list() rounds it up
        lines = {k: v[:] for k, v in self.lines.items()}
        return BoolMat(self.rows, self.cols, self.layout, lines)

    def in_form(self, bits: bool) -> "BoolMat":
        """The same matrix with its lines in bit form or in list form: this
        matrix itself if it is in that form already."""
        if bits == self.bits:
            return self
        lines = _bit_lines(self) if bits else _list_lines(self)
        return BoolMat(self.rows, self.cols, self.layout, lines, bits)

    # -- queries ------------------------------------------------------

    def key_mask(self) -> int:
        """An int with bit k set for every line key k.  It is kept with the
        matrix, and :func:`merge_into` brings it up to date."""
        if self._keys is None:
            self._keys = _bitmask(self.lines)
        return self._keys

    def int_lines(self) -> dict[int, int]:
        """The lines as ints: ``lines`` itself in bit form, else a copy
        that is kept with the matrix, and that :func:`merge_into` brings
        up to date."""
        if self.bits:
            return self.lines
        if self._ints is None:
            self._ints = _bit_lines(self)
        return self._ints

    def get(self, i: int, j: int) -> bool:
        line, pos = (i, j) if self.layout == ROW else (j, i)
        lst = self.lines.get(line)
        if not lst:
            return False
        if self.bits:
            return bool(lst >> pos & 1)
        at = bisect_left(lst, pos)
        return at < len(lst) and lst[at] == pos

    def entries(self) -> Iterator[tuple[int, int]]:
        """Yield (row, col) pairs line by line, lines in any order."""
        for k, lst in _list_lines(self).items():
            if self.layout == ROW:
                for j in lst:
                    yield (k, j)
            else:
                for i in lst:
                    yield (i, k)

    def entry_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.entries())

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        """Logical equality: same shape and same true entries, any layout."""
        if not isinstance(other, BoolMat):
            return NotImplemented
        if self.shape() != other.shape() or self.nnz != other.nnz:
            return False
        if (self.layout, self.bits) == (other.layout, other.bits):
            return self.lines == other.lines
        return self.entry_set() == other.entry_set()

    def __hash__(self):  # logical eq makes hashing a trap
        raise TypeError("BoolMat is not hashable")

    def __repr__(self) -> str:
        form = ", bits" if self.bits else ""
        return f"BoolMat({self.rows}x{self.cols}, {self.layout}{form}, nnz={self.nnz})"


def _list_lines(m: BoolMat) -> dict:
    """m's lines as position lists (m's own dict when it has that form)."""
    if not m.bits:
        return m.lines
    return {k: _positions(x) for k, x in m.lines.items()}


def _bit_lines(m: BoolMat) -> dict:
    """m's lines as ints (m's own dict when it has that form)."""
    if m.bits:
        return m.lines
    return {k: _bitmask(line) for k, line in m.lines.items()}


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


class Accumulator:
    """A row-major matrix under construction.  Unlike :class:`BoolMat` it
    is mutable.  ``spgemm(..., into=acc)`` and :meth:`add` add rows to it,
    and :func:`masked` turns it into a :class:`BoolMat` of the same form,
    so a result gathered from many products is deduplicated once.  In
    list form each row holds the positions added so far, unsorted and
    possibly repeated; in bit form (``bits``) each row is the OR of the
    ints added so far, and ``received`` counts the entries added (the
    popcount of every row put), which the list form keeps as its row
    lengths."""

    __slots__ = ("rows", "cols", "lines", "bits", "received")

    def __init__(self, rows: int, cols: int, bits: bool = False):
        self.rows = rows
        self.cols = cols
        self.bits = bits
        self.lines: dict = {}
        self.received = 0

    def __bool__(self) -> bool:
        """Whether anything was added since the accumulator was made or
        last masked."""
        return bool(self.lines)

    def sink(self, rows: int, cols: int, bits: bool = False):
        """A function ``put(i, row)`` adding row i of a rows x cols
        row-major matrix, the row given as an int with ``bits`` and as an
        iterable of positions without.  A matrix of this accumulator's
        shape is added as it is.  An n x k*n accumulator of horizontal
        blocks also takes a k*n x n matrix of vertical blocks: entry
        (t*n + u, w) goes to (u, t*n + w)."""
        n = None if (rows, cols) == (self.rows, self.cols) else self._block_size(rows, cols)
        lines = self.lines
        get = lines.get
        if self.bits:
            if n is None:

                def put(i, x):
                    lines[i] = get(i, 0) | x
                    self.received += x.bit_count()

            else:

                def put(i, x):
                    u = i % n
                    lines[u] = get(u, 0) | x << (i - u)
                    self.received += x.bit_count()

            if not bits:
                return lambda i, ps: put(i, _bitmask(ps))
            return put
        if n is None:

            def put(i, js):
                line = get(i)
                if line is None:
                    lines[i] = list(js)
                else:
                    line.extend(js)

        else:

            def put(i, js):
                u = i % n
                off = i - u
                moved = [off + j for j in js]
                line = get(u)
                if line is None:
                    lines[u] = moved
                else:
                    line.extend(moved)

        if bits:
            return lambda i, x: put(i, _positions(x))
        return put

    def _block_size(self, rows: int, cols: int) -> int:
        """n, when a k*n x n matrix of vertical blocks can be added to this
        n x k*n accumulator; ValueError otherwise."""
        n = self.rows
        if (rows, cols) != (self.cols, n) or (n and self.cols % n):
            raise ValueError(
                f"cannot add a {rows}x{cols} matrix to a {self.rows}x{self.cols} accumulator"
            )
        return n

    def add(self, m: BoolMat) -> None:
        """Add every entry of the row-major ``m`` (see :meth:`sink` for the
        shapes)."""
        if m.layout != ROW:
            raise ValueError(f"an accumulator takes row-major matrices, got {m!r}")
        put = self.sink(m.rows, m.cols, m.bits)
        for i, row in m.lines.items():
            put(i, row)


def spgemm(
    a: BoolMat,
    b: BoolMat,
    counter: OpCounter | None = None,
    into: Accumulator | None = None,
) -> BoolMat | None:
    """Exact Boolean product a @ b, row-major, for operands in either form.
    ``b`` must be row-major; a's layout sets the direction.

    A row-major ``a`` drives the product row by row.  A column-major ``a``
    makes it an outer product that iterates b's rows: a @ b is the sum
    over k of a[:, k] times b[k, :], so row k of b is added to every row i
    in column k of a.  Cost is therefore driven by the left operand when
    it is row-major and by the right one when the left is column-major,
    which is what makes a sparse delta cheap when placed there.  Row by
    row, a driving line in bit form is first ANDed with b's key mask, so
    only its hits are walked.  Each product row is the OR (bit form) or
    set union (list form) of the rows of b it hits and is put once, so
    both directions count the same ``scalar_ops`` and put the same
    entries.

    With ``into`` the product's rows are added to that accumulator, moved
    to its shape as :meth:`Accumulator.sink` says, and nothing is
    returned.  Without it the product is returned in list form.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.shape()} @ {b.shape()}")
    if b.layout != ROW:
        raise ValueError(f"the right operand of a product must be row-major, got {b!r}")
    target = into if into is not None else Accumulator(a.rows, b.cols)
    sops = 0
    # an empty operand makes an empty product: the driver is not walked,
    # and only the accumulator's shape is checked
    if not (a.nnz and b.nnz):
        if (a.rows, b.cols) != (target.rows, target.cols):
            target._block_size(a.rows, b.cols)
    elif a.layout == COL:
        # product rows are ints when b's lines are, or when they feed a
        # bit-form accumulator
        ints = b.bits or target.bits
        sops = _outer_product(a, b, target.sink(a.rows, b.cols, ints), ints)
    else:
        # product lines are ints when the other operand's lines are, or
        # when a driver in bit form feeds a bit-form accumulator
        ints = b.bits or (a.bits and target.bits)
        put = target.sink(a.rows, b.cols, ints)
        oget = b.lines.get
        if not (a.bits or b.bits):
            for i, dline in a.lines.items():
                acc: set[int] = set()
                for k in dline:
                    ol = oget(k)
                    if ol:
                        acc.update(ol)
                        sops += len(ol)
                if acc:
                    put(i, acc)
        else:
            sops = _mixed_product(a, b, put, ints)
    if counter is not None:
        counter.spgemm_calls += 1
        counter.scalar_ops += sops
    return masked(target, ()) if into is None else None


def _outer_product(a: BoolMat, b: BoolMat, put, ints: bool) -> int:
    """The rows of a @ b for a column-major ``a``, built by adding each
    line k of ``b`` to every row i in column k of ``a``, then put once
    each: with ``ints`` as ints, else as sets.  Returns the scalar ops."""
    sops = 0
    rows: dict = {}
    get = rows.get
    aget = a.lines.get
    hits = ((col, x) for k, x in b.lines.items() if (col := aget(k)))
    if a.bits:
        hits = ((_positions(col), x) for col, x in hits)
    if ints:
        if not b.bits:
            hits = ((is_, _bitmask(line)) for is_, line in hits)
        for is_, x in hits:
            sops += len(is_) * x.bit_count()
            for i in is_:
                rows[i] = get(i, 0) | x
    else:
        for is_, line in hits:
            sops += len(is_) * len(line)
            for i in is_:
                row = get(i)
                if row is None:
                    rows[i] = set(line)
                else:
                    row.update(line)
    for i, row in rows.items():
        put(i, row)
    return sops


def _mixed_product(driver: BoolMat, other: BoolMat, put, ints: bool) -> int:
    """The lines of a product with an operand in bit form, each put once:
    with ``ints`` an OR of the other operand's lines as ints, else a set
    union of its lists.  Returns the scalar ops."""
    sops = 0
    oget = (other.int_lines() if ints else other.lines).get
    if driver.bits:
        # only the hits are looked up, and every hit finds a line
        okeys = other.key_mask()
        hit_lines = (
            (i, list(map(oget, _positions(h))))
            for i, x in driver.lines.items()
            if (h := x & okeys)
        )
    else:
        hit_lines = ((i, list(filter(None, map(oget, dline)))) for i, dline in driver.lines.items())
    if ints:
        for i, ols in hit_lines:
            if ols:
                put(i, reduce(or_, ols))
                sops += sum(map(int.bit_count, ols))
    else:
        for i, ols in hit_lines:
            put(i, set().union(*ols))
            sops += sum(map(len, ols))
    return sops


def masked(
    acc: Accumulator, pieces: Iterable[BoolMat], counter: OpCounter | None = None
) -> BoolMat:
    """The complement-masked result C<not M> of everything gathered in
    ``acc``, row-major and in the accumulator's form: each row becomes
    sorted(set(row) - that row of every piece), or in bit form ``row &
    ~piece_row`` over the pieces, and rows left empty are dropped.  The
    pieces together are M; they are row-major and share the accumulator's
    shape, in either form.  ``acc`` is emptied.  The entries it received
    count as ``union_entries``."""
    masks = []
    for p in pieces:
        if p.shape() != (acc.rows, acc.cols) or p.layout != ROW:
            raise ValueError(
                f"mask {p!r} is not a row-major {acc.rows}x{acc.cols} matrix"
            )
        if p.nnz:
            masks.append((p.lines.get, p.bits))
    lines = acc.lines
    if counter is not None:
        counter.union_entries += acc.received if acc.bits else sum(map(len, lines.values()))
    acc.received = 0
    out: dict = {}
    if acc.bits:
        while lines:
            k, line = lines.popitem()
            for mget, bits in masks:
                got = mget(k)
                if got:
                    line &= ~(got if bits else _bitmask(got))
                    if not line:
                        break
            if line:
                out[k] = line
    while lines:
        k, line = lines.popitem()
        keep = set(line)
        for mget, bits in masks:
            got = mget(k)
            if got:
                if bits:
                    keep = {p for p in keep if not got >> p & 1}
                else:
                    keep.difference_update(got)
                if not keep:
                    break
        if keep:
            out[k] = sorted(keep)
    return BoolMat(acc.rows, acc.cols, ROW, out, acc.bits)


def merge_into(d: BoolMat, m: BoolMat, counter: OpCounter | None = None) -> None:
    """Add every entry of ``d`` to ``m`` in place, in m's form.  ``d`` must
    be disjoint from ``m`` and share its shape and layout; its form may
    differ.  In bit form each of d's lines is ORed into m's line.  In list
    form a line new to ``m`` gets a copy of d's line, and an existing line
    is replaced by the two lines concatenated and sorted (timsort merges
    the two sorted runs).  Either way the cost is that of d's lines,
    whatever the size of ``m``.  ``d`` is not changed and shares no list
    with ``m`` afterwards.  The entries of ``d`` count as
    ``union_entries``."""
    if m.shape() != d.shape():
        raise ValueError(f"shape mismatch: {m.shape()} vs {d.shape()}")
    if m.layout != d.layout:
        raise ValueError("merge_into requires matching layouts")
    if not d.nnz:
        return
    lines = m.lines
    get = lines.get
    if m.bits:
        for k, dline in _bit_lines(d).items():
            lines[k] = get(k, 0) | dline
    else:
        for k, dline in _list_lines(d).items():
            line = get(k)
            if line is None:
                lines[k] = dline[:]
            else:
                # a new list of exactly the merged size: an extended list
                # would keep its growth slack for the rest of the solve
                line = line + dline
                line.sort()
                lines[k] = line
    m.nnz += d.nnz
    if m._keys is not None:
        m._keys |= d.key_mask()
    if m._ints is not None:
        ints = m._ints
        for k, x in _bit_lines(d).items():
            ints[k] = ints.get(k, 0) | x
    if counter is not None:
        counter.union_entries += d.nnz


def union(a: BoolMat, b: BoolMat, counter: OpCounter | None = None) -> BoolMat:
    """Element-wise union.  Operands must share shape and layout; the
    result is in bit form, a per-line OR, if either operand is."""
    if a.shape() != b.shape():
        raise ValueError(f"shape mismatch: {a.shape()} vs {b.shape()}")
    if a.layout != b.layout:
        raise ValueError("union requires matching layouts")
    if counter is not None:
        counter.union_entries += a.nnz + b.nnz
    bits = a.bits or b.bits
    if not (a.nnz and b.nnz):
        src = b if b.nnz else a
        return BoolMat(a.rows, a.cols, a.layout, dict(_bit_lines(src) if bits else src.lines), bits)
    if bits:
        al, bl = _bit_lines(a), _bit_lines(b)
        out = {k: al.get(k, 0) | bl.get(k, 0) for k in al.keys() | bl.keys()}
        return BoolMat(a.rows, a.cols, a.layout, out, True)
    out: dict[int, list[int]] = {}
    for k in a.lines.keys() | b.lines.keys():
        out[k] = _merge_sorted(a.lines.get(k, []), b.lines.get(k, []))
    return BoolMat(a.rows, a.cols, a.layout, out)


def convert(a: BoolMat, layout: str) -> BoolMat:
    """Return the same logical matrix stored in ``layout``, in a's form."""
    if layout not in (ROW, COL):
        raise ValueError(f"unknown layout {layout!r}")
    if a.layout == layout:
        return a
    if a.bits:
        out: dict[int, int] = {}
        get = out.get
        for k, x in a.lines.items():
            bit = 1 << k
            for pos in _positions(x):
                out[pos] = get(pos, 0) | bit
        return BoolMat(a.rows, a.cols, layout, out, True)
    buckets: dict[int, list[int]] = {}
    # source lines are walked in ascending key order, so every bucket
    # comes out sorted
    for k in sorted(a.lines):
        for pos in a.lines[k]:
            buckets.setdefault(pos, []).append(k)
    return BoolMat(a.rows, a.cols, layout, buckets)


def _exact(lines: dict[int, list[int]]) -> dict[int, list[int]]:
    """``lines`` with every line of two or more positions copied, in place,
    into a list of exactly its length.  A line of one position is built as
    a literal, which is exact already; a longer line built by appends has
    spare slots, which a stored copy would keep for the rest of the
    solve."""
    for key, line in lines.items():
        if len(line) > 1:
            lines[key] = line[:]
    return lines


def _line(positions: set[int]) -> list[int]:
    """The positions as a sorted line, in a list of exactly their number."""
    return sorted(positions)[:] if len(positions) > 1 else [min(positions)]


def _check_blocks(m: BoolMat, rows: int, cols: int, kind: str) -> None:
    if m.shape() != (rows, cols):
        raise ValueError(f"expected {rows}x{cols} {kind} blocks, got {m.shape()}")


def _remap(a: BoolMat, rows: int, cols: int, move) -> BoolMat:
    """Rebuild ``a`` in list form with every entry (i, j) moved to
    move(i, j)."""
    buckets: dict[int, set[int]] = {}
    if a.layout == ROW:
        for i, line in _list_lines(a).items():
            for j in line:
                ni, nj = move(i, j)
                buckets.setdefault(ni, set()).add(nj)
    else:
        for j, line in _list_lines(a).items():
            for i in line:
                ni, nj = move(i, j)
                buckets.setdefault(nj, set()).add(ni)
    return BoolMat(rows, cols, a.layout, {k: _line(v) for k, v in buckets.items()})


def block_diagonalize(v: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Spread a vertical block matrix onto the block diagonal: entry
    (t*n + u, w) becomes (t*n + u, t*n + w)."""
    n = block_size
    _check_blocks(v, universe * n, n, "vertical")
    return _remap(v, universe * n, universe * n, lambda i, j: (i, (i // n) * n + j))


def block_collapse(h: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Union the column blocks of a horizontal block matrix: entry
    (u, t*n + w) becomes (u, w)."""
    n = block_size
    _check_blocks(h, n, universe * n, "horizontal")
    return _remap(h, n, n, lambda i, j: (i, j % n))


def horizontal_to_vertical(h: BoolMat, block_size: int, universe: int) -> BoolMat:
    """Re-index per-slot blocks from horizontal to vertical storage: entry
    (u, t*n + w) becomes (t*n + u, w).  ``h`` must be row-major."""
    n = block_size
    _check_blocks(h, n, universe * n, "horizontal")
    if h.layout != ROW:
        raise ValueError(f"a block move takes row-major matrices, got {h!r}")
    out: dict[int, list[int]] = {}
    # a sorted line meets each block in one sorted run: row u's run in
    # block t, moved left by t*n, is row t*n + u; block 0 keeps its int
    # objects, which a stored copy then shares
    for u, line in _list_lines(h).items():
        t0 = -1
        for p in line:
            t = p // n
            if t != t0:
                t0, off = t, t * n
                out[off + u] = row = [p - off if off else p]
            else:
                row.append(p - off if off else p)
    return BoolMat(universe * n, n, ROW, _exact(out))
