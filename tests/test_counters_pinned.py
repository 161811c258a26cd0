"""Triples and work counters pinned to recorded values.

Each case is solved by every delta and baseline variant; its triples (as
a digest), the three work counters and the iteration count must equal the
values recorded below.  A change to the engine's data layout or kernels
must leave all of them exactly as they are.  The cases are random(40, 90,
3) graphs for every preset, a bracket chain whose stored lines stay as
position lists, a transitive closure whose stored lines switch to bit
rows partway through the solve, and two indexed cases that collapse index
blocks: one a binary rule's right operand, one a unit rule's source.
Under dual_format a left operand's column-major copy is dropped where
M_old * delta cannot read it, and the products it fed are still formed,
against empty stand-ins: the last tests check the premise that keeps the
counters unchanged.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from cflr import PRESET_NAMES, VariantFlags, ensure_wcnf, load_graph, preset, solve, solver
from cflr.grammar import parse_grammar
from cflr.graph import chain_graph
from cflr.oracle import oracle_solve
from cflr import sparse
from cflr.semiring import HBLOCK, PLAIN, build_rule_plan
from cflr.sparse import COL, ROW

from _support import sized_graph_text

VARIANTS = ("ma", "ma1", "ma14", "ma1234")

# a 60-edge ``a`` chain under S -> S S | a: S starts with one entry per
# line and fills up; the 300-edge ``b`` chain widens every line to 361
# bits, so S's lines switch to bit form only after a few iterations
CLOSURE_GRAMMAR = "start: S\nS -> S S | a\nT -> b\n"
CLOSURE_GRAPH = "".join(f"{i} a {i + 1}\n" for i in range(60)) + "".join(
    f"{i} b {i + 1}\n" for i in range(61, 361)
)

# the two operand transforms no preset workload reaches: S -> X Y_[i]
# collapses its right operand's index blocks, and the unit rule S -> Y_[i]
# collapses its source's
RIGHT_COLLAPSE_GRAMMAR = "start: S\nS -> X Y_[i]\nX -> a | X a\nY_[i] -> c_[i] | b Y_[i]\n"
RIGHT_COLLAPSE_GRAPH = (
    "".join(f"{i} a {i + 1}\n" for i in range(12))
    + "".join(f"{i} b {i + 1}\n" for i in range(12, 18))
    + "18 c_f0 19\n18 c_f1 20\n"
)
UNIT_COLLAPSE_GRAMMAR = "start: S\nS -> Y_[i] | S a\nY_[i] -> c_[i] | b Y_[i]\n"
UNIT_COLLAPSE_GRAPH = "".join(f"{i} b {i + 1}\n" for i in range(5)) + (
    "5 c_f0 6\n5 c_f1 7\n7 a 8\n2 c_f2 9\n"
)
TEXT_CASES = {
    "closure": (CLOSURE_GRAMMAR, CLOSURE_GRAPH),
    "right-collapse": (RIGHT_COLLAPSE_GRAMMAR, RIGHT_COLLAPSE_GRAPH),
    "unit-collapse": (UNIT_COLLAPSE_GRAMMAR, UNIT_COLLAPSE_GRAPH),
}


def case(name: str):
    """(grammar, graph) of a named case."""
    if name == "chain":
        g = ensure_wcnf(preset("dyck"))
        return g, chain_graph(400)
    if name in TEXT_CASES:
        grammar_text, graph_text = TEXT_CASES[name]
        g = ensure_wcnf(parse_grammar(grammar_text))
        return g, load_graph(graph_text, g)
    preset_name, seed = name.rsplit(":", 1)
    g = ensure_wcnf(preset(preset_name))
    return g, load_graph(sized_graph_text(g, random.Random(int(seed)), 40, 90, 3), g)


def digest(triples) -> str:
    text = "\n".join(sorted(f"{s.name()} {i} {j}" for s, i, j in triples))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(name: str, variant: str):
    g, graph = case(name)
    r = solve(graph, g, VariantFlags.named(variant))
    c = r.counters
    return r, (digest(r.triples()), c.spgemm_calls, c.scalar_ops, c.union_entries, r.iterations)


CASE_NAMES = [f"{p}:{seed}" for p in PRESET_NAMES for seed in (1, 2)] + [
    "chain", "closure", "right-collapse", "unit-collapse",
]

# (triple digest, spgemm_calls, scalar_ops, union_entries, iterations)
PINNED: dict[tuple[str, str], tuple[str, int, int, int, int]] = {
    ('fsjpt:1', 'ma'): ('bdc5c0932f7dd35a', 76, 229, 456, 4),
    ('fsjpt:1', 'ma1'): ('bdc5c0932f7dd35a', 152, 61, 291, 4),
    ('fsjpt:1', 'ma14'): ('bdc5c0932f7dd35a', 88, 61, 333, 4),
    ('fsjpt:1', 'ma1234'): ('bdc5c0932f7dd35a', 63, 61, 92, 4),
    ('fsjpt:2', 'ma'): ('fea8b44c9e6260f3', 114, 401, 642, 6),
    ('fsjpt:2', 'ma1'): ('fea8b44c9e6260f3', 228, 74, 315, 6),
    ('fsjpt:2', 'ma14'): ('fea8b44c9e6260f3', 132, 74, 355, 6),
    ('fsjpt:2', 'ma1234'): ('fea8b44c9e6260f3', 126, 74, 108, 6),
    ('fsjpt-opt:1', 'ma'): ('00551bbf8cdb56f4', 104, 97, 213, 4),
    ('fsjpt-opt:1', 'ma1'): ('00551bbf8cdb56f4', 208, 26, 142, 4),
    ('fsjpt-opt:1', 'ma14'): ('00551bbf8cdb56f4', 80, 26, 184, 4),
    ('fsjpt-opt:1', 'ma1234'): ('00551bbf8cdb56f4', 75, 26, 42, 4),
    ('fsjpt-opt:2', 'ma'): ('7cbd75362a55b60b', 104, 81, 192, 4),
    ('fsjpt-opt:2', 'ma1'): ('7cbd75362a55b60b', 208, 22, 133, 4),
    ('fsjpt-opt:2', 'ma14'): ('7cbd75362a55b60b', 80, 22, 161, 4),
    ('fsjpt-opt:2', 'ma1234'): ('7cbd75362a55b60b', 65, 22, 36, 4),
    ('fica:1', 'ma'): ('cc0f2192d820c87f', 200, 83683, 43052, 25),
    ('fica:1', 'ma1'): ('cc0f2192d820c87f', 400, 6366, 7767, 25),
    ('fica:1', 'ma14'): ('cc0f2192d820c87f', 400, 6366, 7767, 25),
    ('fica:1', 'ma1234'): ('cc0f2192d820c87f', 514, 6366, 8518, 25),
    ('fica:2', 'ma'): ('a31c5506928ff5a5', 192, 36706, 27554, 24),
    ('fica:2', 'ma1'): ('a31c5506928ff5a5', 384, 2439, 4105, 24),
    ('fica:2', 'ma14'): ('a31c5506928ff5a5', 384, 2439, 4105, 24),
    ('fica:2', 'ma1234'): ('a31c5506928ff5a5', 488, 2439, 4259, 24),
    ('fica-opt:1', 'ma'): ('c5e38c6c9d2520a3', 80, 9802, 5313, 10),
    ('fica-opt:1', 'ma1'): ('c5e38c6c9d2520a3', 160, 2102, 2305, 10),
    ('fica-opt:1', 'ma14'): ('c5e38c6c9d2520a3', 160, 2102, 2305, 10),
    ('fica-opt:1', 'ma1234'): ('c5e38c6c9d2520a3', 155, 2102, 2418, 10),
    ('fica-opt:2', 'ma'): ('85f10dd03666d7f9', 96, 4799, 3691, 12),
    ('fica-opt:2', 'ma1'): ('85f10dd03666d7f9', 192, 610, 974, 12),
    ('fica-opt:2', 'ma14'): ('85f10dd03666d7f9', 192, 610, 974, 12),
    ('fica-opt:2', 'ma1234'): ('85f10dd03666d7f9', 206, 610, 951, 12),
    ('fsca:1', 'ma'): ('13c26270b575786c', 120, 2697, 2844, 10),
    ('fsca:1', 'ma1'): ('13c26270b575786c', 240, 368, 858, 10),
    ('fsca:1', 'ma14'): ('13c26270b575786c', 160, 368, 892, 10),
    ('fsca:1', 'ma1234'): ('13c26270b575786c', 171, 368, 621, 10),
    ('fsca:2', 'ma'): ('3fb5fc85ef8e154b', 168, 6603, 5913, 14),
    ('fsca:2', 'ma1'): ('3fb5fc85ef8e154b', 336, 724, 1377, 14),
    ('fsca:2', 'ma14'): ('3fb5fc85ef8e154b', 224, 724, 1404, 14),
    ('fsca:2', 'ma1234'): ('3fb5fc85ef8e154b', 257, 724, 1206, 14),
    ('fsca-wcnf:1', 'ma'): ('9c4db93745c248ad', 96, 2329, 2378, 8),
    ('fsca-wcnf:1', 'ma1'): ('9c4db93745c248ad', 192, 368, 757, 8),
    ('fsca-wcnf:1', 'ma14'): ('9c4db93745c248ad', 128, 368, 791, 8),
    ('fsca-wcnf:1', 'ma1234'): ('9c4db93745c248ad', 134, 368, 556, 8),
    ('fsca-wcnf:2', 'ma'): ('be5f046988a66a8a', 132, 5405, 4738, 11),
    ('fsca-wcnf:2', 'ma1'): ('be5f046988a66a8a', 264, 724, 1214, 11),
    ('fsca-wcnf:2', 'ma14'): ('be5f046988a66a8a', 176, 724, 1241, 11),
    ('fsca-wcnf:2', 'ma1234'): ('be5f046988a66a8a', 193, 724, 1105, 11),
    ('cscvf:1', 'ma'): ('8c47927f88b82a8a', 49, 3572, 1986, 7),
    ('cscvf:1', 'ma1'): ('8c47927f88b82a8a', 98, 698, 878, 7),
    ('cscvf:1', 'ma14'): ('8c47927f88b82a8a', 42, 698, 934, 7),
    ('cscvf:1', 'ma1234'): ('8c47927f88b82a8a', 42, 698, 819, 7),
    ('cscvf:2', 'ma'): ('6a3e1c3e32c0572d', 91, 18598, 6406, 13),
    ('cscvf:2', 'ma1'): ('6a3e1c3e32c0572d', 182, 3427, 2797, 13),
    ('cscvf:2', 'ma14'): ('6a3e1c3e32c0572d', 78, 3427, 2856, 13),
    ('cscvf:2', 'ma1234'): ('6a3e1c3e32c0572d', 84, 3427, 2982, 13),
    ('cscvf-wcnf:1', 'ma'): ('7da4cf6fb82d217e', 72, 1811, 1956, 9),
    ('cscvf-wcnf:1', 'ma1'): ('7da4cf6fb82d217e', 144, 267, 614, 9),
    ('cscvf-wcnf:1', 'ma14'): ('7da4cf6fb82d217e', 72, 267, 695, 9),
    ('cscvf-wcnf:1', 'ma1234'): ('7da4cf6fb82d217e', 72, 267, 627, 9),
    ('cscvf-wcnf:2', 'ma'): ('51cd532097d590c9', 136, 10357, 8169, 17),
    ('cscvf-wcnf:2', 'ma1'): ('51cd532097d590c9', 272, 1146, 1792, 17),
    ('cscvf-wcnf:2', 'ma14'): ('51cd532097d590c9', 136, 1146, 2030, 17),
    ('cscvf-wcnf:2', 'ma1234'): ('51cd532097d590c9', 148, 1146, 2275, 17),
    ('dyck:1', 'ma'): ('29a2b8b81398b5a8', 36, 2972, 3095, 12),
    ('dyck:1', 'ma1'): ('29a2b8b81398b5a8', 72, 333, 697, 12),
    ('dyck:1', 'ma14'): ('29a2b8b81398b5a8', 72, 333, 697, 12),
    ('dyck:1', 'ma1234'): ('29a2b8b81398b5a8', 71, 333, 501, 12),
    ('dyck:2', 'ma'): ('1ebe2d7f1492bab9', 57, 11923, 10155, 19),
    ('dyck:2', 'ma1'): ('1ebe2d7f1492bab9', 114, 841, 1483, 19),
    ('dyck:2', 'ma14'): ('1ebe2d7f1492bab9', 114, 841, 1483, 19),
    ('dyck:2', 'ma1234'): ('1ebe2d7f1492bab9', 124, 841, 1213, 19),
    ('chain', 'ma'): ('fe7f532282e8d6df', 1200, 80199, 80998, 400),
    ('chain', 'ma1'): ('fe7f532282e8d6df', 2400, 399, 1198, 400),
    ('chain', 'ma14'): ('fe7f532282e8d6df', 2400, 399, 1198, 400),
    ('chain', 'ma1234'): ('fe7f532282e8d6df', 3086, 399, 1126, 400),
    ('closure', 'ma'): ('9c8f8dbeed8bea8a', 7, 80451, 8439, 7),
    ('closure', 'ma1'): ('9c8f8dbeed8bea8a', 14, 35990, 7869, 7),
    ('closure', 'ma14'): ('9c8f8dbeed8bea8a', 14, 35990, 7869, 7),
    ('closure', 'ma1234'): ('9c8f8dbeed8bea8a', 13, 35990, 9279, 7),
    ('right-collapse', 'ma'): ('f9c1d44f5c9389e7', 65, 902, 1036, 13),
    ('right-collapse', 'ma1'): ('f9c1d44f5c9389e7', 130, 102, 236, 13),
    ('right-collapse', 'ma14'): ('f9c1d44f5c9389e7', 78, 102, 236, 13),
    ('right-collapse', 'ma1234'): ('f9c1d44f5c9389e7', 83, 102, 256, 13),
    ('unit-collapse', 'ma'): ('70f1c4a55549baa0', 32, 102, 231, 8),
    ('unit-collapse', 'ma1'): ('70f1c4a55549baa0', 64, 18, 75, 8),
    ('unit-collapse', 'ma14'): ('70f1c4a55549baa0', 32, 18, 75, 8),
    ('unit-collapse', 'ma1234'): ('70f1c4a55549baa0', 29, 18, 61, 8),
}


# whether the start symbol's stored lines end in bit form: the chain's
# one-entry lines never pay for a 401-bit int, the closure's filled ones do
FINAL_BITS = {"chain": False, "closure": True}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_counters_and_triples_are_pinned(name):
    for variant in VARIANTS:
        r, got = measure(name, variant)
        assert got == PINNED[name, variant], variant
        if name in FINAL_BITS:
            assert r.matrices.mats[r.grammar.start, PLAIN].bits is FINAL_BITS[name], variant


@pytest.mark.parametrize("name", ["right-collapse", "unit-collapse"])
def test_collapse_cases_collapse_entries(monkeypatch, name):
    """The two collapse cases agree with the oracle, and under block
    execution each collapses index blocks that hold entries, so the
    transform they pin is really run."""
    g, graph = case(name)
    nonempty = []
    collapse = sparse.block_collapse

    def recording(h, *args):
        nonempty.append(h.nnz > 0)
        return collapse(h, *args)

    monkeypatch.setattr(sparse, "block_collapse", recording)
    for variant in ("ma14", "ma1234"):
        nonempty.clear()
        r = solve(graph, g, VariantFlags.named(variant))
        assert r.triples() == oracle_solve(graph, g), variant
        assert any(nonempty), variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_switched_copies_keep_every_piece_in_bit_form(monkeypatch, variant):
    """After a stored copy switches to bit form, every piece of it stays in
    bit form: under lazy union each delta becomes a forest piece, and the
    delta masked in the iteration of the switch must come in bit form too."""
    insert = solver._Store.insert
    switched = set()

    def checked(store, dview, counter):
        insert(store, dview, counter)
        for key in store.bit_keys:
            assert all(p.bits for p in store.pieces(key)), (store.sym, key)
            switched.add((store.sym, key))

    monkeypatch.setattr(solver._Store, "insert", checked)
    # M's row copy switches in an iteration that also finds new M entries
    _, got = measure("fsca-wcnf:1", variant)
    assert got == PINNED["fsca-wcnf:1", variant]
    assert any(sym.name() == "M" and key == (PLAIN, ROW) for sym, key in switched)


def test_dual_format_keeps_column_copies_only_where_m_old_delta_reads_them(monkeypatch):
    """A left operand keeps a column-major copy only for a step whose right
    operand some step produces.  Any other right operand (a terminal, or a
    normal-form symbol like ``b#t`` that derives one) has a delta only in
    iteration 1, when M_old is empty, so M_old * delta never reads that
    copy."""
    keys = {}
    init = solver._Store.__init__

    def recording(store, sym, *args):
        init(store, sym, *args)
        keys[sym.name()] = set(store.keys)

    monkeypatch.setattr(solver._Store, "__init__", recording)
    # M -> DV d, V -> FV_i f_i and A_bar -> M a_bar read no column copy;
    # V -> V A and V -> A_bar V do
    assert measure("fsca-wcnf:1", "ma1234")[1] == PINNED["fsca-wcnf:1", "ma1234"]
    assert keys["DV"] == keys["M"] == {(PLAIN, ROW)}
    assert keys["FV_i"] == {(HBLOCK, ROW)}
    assert (PLAIN, COL) in keys["V"] and (PLAIN, COL) in keys["A_bar"]
    # S -> S#1 b#t: S#1 is stored, and accumulated, row-major
    assert measure("chain", "ma1234")[1] == PINNED["chain", "ma1234"]
    assert keys["S#1"] == {(PLAIN, ROW)}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_every_symbol_keeps_a_row_major_canonical_copy(monkeypatch, name):
    """Every store keeps its canonical key, row-major, and every
    accumulator is masked by row-major pieces into a row-major delta: no
    product row, mask or delta crosses layouts.  A symbol stored for the
    outer product keeps its column copy beside it."""
    stores = []
    init = solver._Store.__init__
    masked = sparse.masked
    layouts = set()

    def recording(store, *args):
        init(store, *args)
        stores.append(store)

    def recording_masked(acc, pieces, *args):
        pieces = list(pieces)
        out = masked(acc, pieces, *args)
        layouts.update(p.layout for p in pieces)
        layouts.add(out.layout)
        return out

    monkeypatch.setattr(solver._Store, "__init__", recording)
    monkeypatch.setattr(sparse, "masked", recording_masked)
    for variant in VARIANTS:
        stores.clear()
        assert measure(name, variant)[1] == PINNED[name, variant], variant
        assert stores
        for store in stores:
            assert store.canonical in {(PLAIN, ROW), (HBLOCK, ROW)}, (variant, store.sym)
            assert store.canonical in store.keys, (variant, store.sym)
        if variant == "ma1234" and name == "fsca-wcnf:1":
            (a_bar,) = [st for st in stores if st.sym.name() == "A_bar"]
            assert set(a_bar.keys) == {(PLAIN, ROW), (PLAIN, COL)}
    assert layouts == {ROW}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_products_against_dropped_column_copies_are_empty(monkeypatch, name):
    """Under ma1234 no symbol outside the results of the rule plan has a
    delta after iteration 1, and every M_old * delta formed against an
    empty stand-in for a dropped column copy has an empty right operand
    too.  Forest pieces are never empty, so an outer product with an empty
    left operand is one against a stand-in."""
    g, graph = case(name)
    plan = build_rule_plan(g, g.is_indexed)
    results = {st.result[0] for st in plan.bin_steps} | {u.result[0] for u in plan.unit_steps}
    late = set()  # symbols with a delta after iteration 1
    stand_in_rights = []  # the right operand's nnz of each stand-in product
    spgemm = sparse.spgemm

    def recording(a, b, *args, **kwargs):
        if a.layout == COL and not a.nnz:
            stand_in_rights.append(b.nnz)
        return spgemm(a, b, *args, **kwargs)

    def hook(iteration, m_old, delta, m):
        if iteration > 1:
            late.update(sym for (sym, _), d in delta.mats.items() if d.nnz)

    monkeypatch.setattr(sparse, "spgemm", recording)
    r = solve(graph, g, VariantFlags.named("ma1234"), iteration_hook=hook)
    assert late <= results, late - results
    assert not any(stand_in_rights)
    # a step whose right operand is not produced, and whose left operand
    # keeps no column copy for another step, multiplies by stand-ins
    read = {st.left for st in plan.bin_steps if st.right[0] in results}
    if r.iterations > 1 and any(st.left not in read for st in plan.bin_steps):
        assert stand_in_rights
