import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cflr.sparse
from cflr.grammar import Symbol, ensure_wcnf, expand_indexed, parse_grammar, preset
from cflr.graph import LabeledGraph, load_graph
from cflr.semiring import (
    HBLOCK,
    PLAIN,
    VBLOCK,
    NontermMatrix,
    build_rule_plan,
    initial_matrix,
    scalar_mul,
)
from cflr.solver import VariantFlags, solve
from cflr.sparse import OpCounter
from _support import (
    apply_unit_rules,
    cell,
    initial_matrix_by_edge,
    random_graph_text,
    semiring_matmul,
    sized_graph_text,
)

CSCVF_WCNF = ensure_wcnf(preset("cscvf-wcnf"))
FICA_OPT = ensure_wcnf(preset("fica-opt"))
FSJPT_OPT = ensure_wcnf(preset("fsjpt-opt"))
# indexed labels, a plain (B) and an indexed (A_[i]) eps rule, labels that
# feed one nonterminal (a and b feed C; a and call_[i] feed D) and a
# terminal, a, that is both a rule body and a binary operand
SEED_GRAMMAR = ensure_wcnf(
    parse_grammar(
        """
        S -> C a | A_[i] ret_[i] | D B
        A_[i] -> eps | call_[i]
        B -> eps
        C -> a | b
        D -> call_[i] | a
        """
    )
)
SEED_LABELS = ("a", "b", "x", "call_f0", "call_f1", "call_f2", "ret_f0", "ret_f1")


def nt(base, index=None):
    return Symbol("nonterminal", base, index)


class TestScalarMul:
    def test_empty_annihilates(self):
        assert scalar_mul([], [nt("A")], CSCVF_WCNF) == frozenset()
        assert scalar_mul([nt("A")], [], CSCVF_WCNF) == frozenset()

    def test_cscvf_rule(self):
        got = scalar_mul([nt("A")], [nt("AH")], CSCVF_WCNF)
        assert got == frozenset({nt("A")})

    def test_fica_opt_rules(self):
        assert scalar_mul([nt("N1")], [nt("M")], FICA_OPT) == frozenset({nt("N2")})
        assert scalar_mul([nt("N2")], [nt("N1")], FICA_OPT) == frozenset()

    def test_distributes_over_union_exhaustively(self):
        g = FICA_OPT  # five nonterminals: all 32^3 set triples are feasible
        universe = sorted(g.nonterminals, key=lambda s: s.base)
        assert len(universe) == 5
        sets = [
            frozenset(itertools.compress(universe, bits))
            for bits in itertools.product((0, 1), repeat=5)
        ]
        products = {
            (a, b): scalar_mul(a, b, g) for a in sets for b in sets
        }
        for a, b, c in itertools.product(sets, repeat=3):
            assert products[(a | b, c)] == products[(a, c)] | products[(b, c)]
            assert products[(c, a | b)] == products[(c, a)] | products[(c, b)]


class TestInitialMatrix:
    def test_epsilon_rules_fill_diagonal(self):
        g = ensure_wcnf(parse_grammar("A -> a | eps"))
        graph = load_graph("0 x 1\n1 x 2\n2 x 3\n", g)  # 4 vertices, no 'a' edges
        m = initial_matrix(graph, g)
        assert m.mats[(nt("A"), PLAIN)].entry_set() == {(i, i) for i in range(4)}

    def test_single_edge_terminal_rule(self):
        g = ensure_wcnf(parse_grammar("S -> a"))
        graph = load_graph("0 a 1\n", g)
        m = initial_matrix(graph, g)
        assert m.mats[(nt("S"), PLAIN)].entry_set() == {(0, 1)}

    def test_fica_opt_seed(self):
        graph = load_graph("0 d_bar 1\n1 d 2\n", FICA_OPT)
        m = initial_matrix(graph, FICA_OPT)
        assert m.mats[(nt("N1"), PLAIN)].entry_set() == {(0, 1)}
        assert m.mats[(nt("N3"), PLAIN)].entry_set() == {(1, 2)}
        assert (nt("M"), PLAIN) not in m.mats

    def test_indexed_terminal_goes_to_block_slot(self):
        graph = load_graph("0 call_f1 1\n1 ret_f1 0\n", CSCVF_WCNF)
        m = initial_matrix(graph, CSCVF_WCNF, indexed_blocks=True)
        # constant block for the indexed terminal operand: slot 0, |V|=2
        call = Symbol("terminal", "call", "i")
        assert m.mats[(call, HBLOCK)].entry_set() == {(0, 1)}
        ret = Symbol("terminal", "ret", "i")
        assert m.mats[(ret, HBLOCK)].entry_set() == {(1, 0)}

    @given(
        n=st.integers(1, 6),
        doubled=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_seeds_match_the_edge_by_edge_reference(self, n, doubled, data):
        # several labels per vertex pair, so labels share (u, v) pairs
        vertex = st.integers(0, n - 1)
        labels = st.sets(st.sampled_from(SEED_LABELS), min_size=1)
        triples = data.draw(st.lists(st.tuples(vertex, labels, vertex), max_size=12))
        text = "".join(f"{u} {lab} {v}\n" for u, labs, v in triples for lab in sorted(labs))
        graph = load_graph(text, SEED_GRAMMAR)
        if doubled:
            # built directly, every edge twice
            graph = LabeledGraph(
                graph.vertex_count, graph.vertex_names, graph.edges * 2, graph.index_universe
            )
        g = SEED_GRAMMAR
        gx = expand_indexed(g, graph.index_universe)
        for grammar, blocks in ((g, True), (gx, False), (g, False)):
            got = initial_matrix(graph, grammar, blocks)
            want = initial_matrix_by_edge(graph, grammar, blocks)
            assert got.universe == want.universe
            assert list(got.mats) == list(want.mats)
            for key, m in got.mats.items():
                assert m == want.mats[key] and m.shape() == want.mats[key].shape()
                for line in m.lines.values():
                    assert line == sorted(set(line))
                    assert sys.getsizeof(line) == sys.getsizeof(line[:])


class TestMatmul:
    def test_zero_in_zero_out(self):
        graph = load_graph("0 a 1\n", ensure_wcnf(preset("dyck")))
        g = ensure_wcnf(preset("dyck"))
        zero = NontermMatrix(graph.vertex_count, (), {})
        out = semiring_matmul(zero, zero, g)
        assert all(m.nnz == 0 for m in out.mats.values())

    def test_two_vertex_cscvf_steps(self):
        g = CSCVF_WCNF
        gx = expand_indexed(g, ("f1",))
        graph = load_graph("0 call_f1 1\n1 ret_f1 0\n", g)
        m0 = initial_matrix(graph, gx)
        first = semiring_matmul(m0, m0, gx)
        assert first.mats[(nt("AR", "f1"), PLAIN)].entry_set() == {(1, 0)}
        assert first.mats[(nt("AH"), PLAIN)].nnz == 0
        m1 = m0.union(first)
        second = semiring_matmul(m1, m1, gx)
        assert second.mats[(nt("AH"), PLAIN)].entry_set() == {(0, 0)}

    def test_cell_formula_oracle(self):
        rng = random.Random(17)
        g = FICA_OPT
        for _ in range(12):
            graph = load_graph(
                random_graph_text(g, rng, max_vertices=8, max_edges=24), g
            )
            m = initial_matrix(graph, g)
            # iterate once so cells hold nontrivial sets
            m = m.union(semiring_matmul(m, m, g))
            prod = semiring_matmul(m, m, g)
            n = graph.vertex_count
            for i in range(n):
                for j in range(n):
                    want = frozenset()
                    for k in range(n):
                        want |= scalar_mul(cell(m, i, k), cell(m, k, j), g)
                    got = {s for s in cell(prod, i, j) if s.kind == "nonterminal"}
                    assert got == want, (i, j)

    @pytest.mark.parametrize("name", ["fsjpt-opt", "cscvf-wcnf"])
    def test_blocks_on_off_agree(self, name):
        g = ensure_wcnf(preset(name))
        rng = random.Random(23)
        for _ in range(50):
            graph = load_graph(
                random_graph_text(g, rng, max_vertices=20, max_edges=60, max_indices=3),
                g,
            )
            gx = expand_indexed(g, graph.index_universe)
            m_plain = initial_matrix(graph, gx)
            m_block = initial_matrix(graph, g, indexed_blocks=True)
            assert m_plain.logical_eq(m_block)
            p_plain = semiring_matmul(m_plain, m_plain, gx)
            p_block = semiring_matmul(m_block, m_block, g, indexed_blocks=True)
            assert p_plain.logical_eq(p_block)

    def test_one_product_per_rule_family_with_blocks(self):
        g = CSCVF_WCNF
        graph = load_graph(
            "0 call_f1 1\n1 ret_f1 0\n0 call_f2 1\n1 ret_f2 0\n1 a 1\n", g
        )
        gx = expand_indexed(g, graph.index_universe)
        mb = initial_matrix(graph, g, indexed_blocks=True)
        mp = initial_matrix(graph, gx)
        cb, cp = OpCounter(), OpCounter()
        semiring_matmul(mb, mb, g, indexed_blocks=True, counter=cb)
        semiring_matmul(mp, mp, gx, counter=cp)
        assert cb.spgemm_calls == len(g.binary_rules) == 4
        assert cp.spgemm_calls == len(gx.binary_rules) == 2 + 2 * 2


class TestRulePlan:
    def test_every_indexed_shape_is_dispatched(self):
        text = """\
        start: S
        S -> P_[i] Q_[i] | R_[i] S | S T_[i]
        P_[i] -> S q_[i]
        Q_[i] -> q_[i] S
        R_[i] -> P_[i] Q_[i]
        T_[i] -> q_[i]
        """
        g = ensure_wcnf(parse_grammar(text))
        plan = build_rule_plan(g, indexed_blocks=True)
        kinds = {
            (st.result[1], st.left[1], st.right[1], st.left_transform, st.right_transform)
            for st in plan.bin_steps
        }
        assert kinds == {
            ("plain", "h", "v", None, None),  # paired operands
            ("h", "plain", "h", None, None),  # keep index via right
            ("v", "v", "plain", None, None),  # keep index via left
            ("v", "v", "v", "diag", None),  # locked: all three indexed
            ("plain", "h", "plain", "collapse", None),  # drop left index
            ("plain", "plain", "h", None, "collapse"),  # drop right index
        }

    def test_unit_rules_planned(self):
        g = ensure_wcnf(preset("fsca-wcnf"))
        plan = build_rule_plan(g)
        assert [(u.result[0].name(), u.source[0].name()) for u in plan.unit_steps] == [
            ("V", "M")
        ]

    def test_apply_unit_rules_copies_entries(self):
        g = ensure_wcnf(preset("fsca-wcnf"))
        graph = load_graph("0 d_bar 1\n1 d 2\n", g)
        m = initial_matrix(graph, g)
        # run products to a local fixpoint by hand, folding units in each round
        for _ in range(6):
            m = m.union(semiring_matmul(m, m, g)).union(apply_unit_rules(m, g))
        mm = m.mats[(nt("M"), PLAIN)].entry_set()
        vv = m.mats[(nt("V"), PLAIN)].entry_set()
        assert (0, 2) in mm
        assert mm <= vv  # the unit rule pours M into V


@pytest.mark.parametrize("name", ["cscvf-wcnf", "fsca-wcnf"])
@pytest.mark.parametrize("bits", [False, True])
def test_result_readers_call_no_public_sparse_function(monkeypatch, name, bits):
    """A kernel trace wraps every public function of ``cflr.sparse`` (chosen
    here as ``perfbench/spans.py`` chooses them) and takes each span it
    records for a part of the solve, so the readers a caller runs after the
    solve call none of them, with the families' lines in either form."""
    g = ensure_wcnf(preset(name))
    graph = load_graph(sized_graph_text(g, random.Random(31), 60, 240, 3), g)
    solved = solve(graph, g, VariantFlags.named("ma14")).matrices
    mats = {key: m.in_form(bits) for key, m in solved.mats.items()}
    assert any(r == HBLOCK and m.nnz for (_, r), m in mats.items())
    matrices = NontermMatrix(solved.size, solved.universe, mats)
    called = []
    for attr, fn in vars(cflr.sparse).items():
        if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == "cflr.sparse":

            def recorder(*args, attr=attr, fn=fn, **kwargs):
                called.append(attr)
                return fn(*args, **kwargs)

            monkeypatch.setattr(cflr.sparse, attr, recorder)
    triples = matrices.to_triples()
    for sym in {s for s, _, _ in triples}:
        assert matrices.pairs(sym)
    assert sum(matrices.pair_counts().values()) == len(triples)
    assert called == []
    # the recorders are in place: the solve's block move is recorded
    family = next(s for s, r in mats if r == HBLOCK)
    matrices.fetch((family, VBLOCK))
    assert called == ["horizontal_to_vertical"]
