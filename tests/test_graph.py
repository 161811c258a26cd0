import random

import pytest
from hypothesis import given, settings, strategies as st

from cflr.grammar import Symbol, ensure_wcnf, preset
from cflr.graph import (
    GraphFormatError,
    LabeledGraph,
    chain_graph,
    grid_graph,
    load_graph,
    serialize_graph,
)
from cflr.solver import VariantFlags, solve

DYCK = ensure_wcnf(preset("dyck"))
CSCVF = ensure_wcnf(preset("cscvf-wcnf"))
FSJPT_OPT = ensure_wcnf(preset("fsjpt-opt"))


class TestLoad:
    def test_plain_load(self):
        g = load_graph("0 a 1\n1 b 2\n", DYCK)
        assert g.vertex_count == 3
        assert len(g.edges) == 2
        assert g.index_universe == ()

    def test_indexed_labels_split(self):
        g = load_graph("0 call_f1 1\n1 ret_f1 2\n", CSCVF)
        assert g.index_universe == ("f1",)
        syms = {sym for _, sym, _ in g.edges}
        assert syms == {
            Symbol("terminal", "call", "f1"),
            Symbol("terminal", "ret", "f1"),
        }

    def test_index_universe_counts_distinct_suffixes(self):
        rng = random.Random(4)
        suffixes = [f"f{rng.randrange(40)}" for _ in range(120)]
        lines = [
            f"{i % 7} load_{sfx} {(i + 1) % 7}" for i, sfx in enumerate(suffixes)
        ]
        g = load_graph("\n".join(lines), FSJPT_OPT)
        # independent scan of the same lines
        want = []
        for line in lines:
            sfx = line.split()[1][len("load_") :]
            if sfx not in want:
                want.append(sfx)
        assert list(g.index_universe) == want

    def test_longest_indexed_base_wins(self):
        # store_bar_f1 must resolve as base store_bar, not store with index bar_f1
        g = load_graph("0 store_bar_f1 1\n1 store_f1 2\n", FSJPT_OPT)
        syms = {sym for _, sym, _ in g.edges}
        assert Symbol("terminal", "store_bar", "f1") in syms
        assert Symbol("terminal", "store", "f1") in syms

    def test_unrelated_label_with_prefix_stays_opaque(self):
        g = load_graph("0 loader_x 1\n", FSJPT_OPT)
        (_, sym, _) = g.edges[0]
        assert sym == Symbol("terminal", "loader_x", None)

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError) as exc:
            load_graph("0 a 1\n0 a\n", DYCK)
        assert exc.value.line == 2

    def test_missing_index_part_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("0 call 1\n", CSCVF)
        with pytest.raises(GraphFormatError):
            load_graph("0 call_ 1\n", CSCVF)

    def test_duplicate_triples_dropped(self):
        g = load_graph("0 a 1\n0 a 1\n0 b 1\n", DYCK)
        assert len(g.edges) == 2

    def test_edge_count_matches_payload_lines(self):
        text = "# comment\n\n0 a 1\n1 a 2\n2 b 3\n\n# tail\n"
        g = load_graph(text, DYCK)
        payload = [
            ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")
        ]
        assert len(g.edges) == len(payload)

    def test_arbitrary_vertex_tokens_interned_densely(self):
        g = load_graph("alpha a beta\nbeta b gamma\n", DYCK)
        assert g.vertex_names == ("alpha", "beta", "gamma")
        assert [(u, v) for u, _, v in g.edges] == [(0, 1), (1, 2)]

    def test_custom_index_separator(self):
        g = load_graph("0 call.f1 1\n", CSCVF, index_separator=".")
        assert g.index_universe == ("f1",)


def reference_load(lines):
    """The loading rules written out naively for the CSCVF grammar, whose
    indexed bases are ``call`` and ``ret``; every other label is plain."""
    names, edges, tags = [], [], []
    for parts in (line.split() for line in lines):
        if not parts or parts[0].startswith("#"):
            continue
        u, label, v = parts
        base, _, tag = label.partition("_")
        sym = Symbol("terminal", base, tag) if base in ("call", "ret") else Symbol("terminal", label)
        for tok in (u, v):
            if tok not in names:
                names.append(tok)
        edge = (names.index(u), sym, names.index(v))
        if edge not in edges:
            edges.append(edge)
            if sym.index is not None and sym.index not in tags:
                tags.append(sym.index)
    return tuple(names), tuple(edges), tuple(tags)


_vertex = st.sampled_from(["0", "1", "2", "x", "yy"])
_label = st.sampled_from(["a", "b", "calls", "call_f1", "call_f2", "ret_f1", "ret_f2", "ret_i"])
_edge_line = st.builds(
    lambda u, label, v, sep: sep.join((u, label, v)), _vertex, _label, _vertex,
    st.sampled_from([" ", "\t", "  "]),
)
_lines = st.lists(
    st.one_of(_edge_line, st.sampled_from(["", "   ", "# note", "  # indented note"])),
    max_size=30,
)


class TestLoadOrder:
    @given(_lines)
    @settings(max_examples=150, deadline=None)
    def test_load_graph_matches_reference_loader(self, lines):
        """Ids by first appearance (u before v), the first occurrence of
        each triple in order, and tags in the order of the first kept edge
        that carries them; the same from a string and from a generator."""
        want = reference_load(lines)
        for source in ("\n".join(lines), (line + "\n" for line in lines)):
            g = load_graph(source, CSCVF)
            assert (g.vertex_names, g.edges, g.index_universe) == want
            assert g.vertex_count == len(want[0])


class TestSerialize:
    def test_round_trip_identity(self):
        rng = random.Random(8)
        lines = []
        for _ in range(60):
            kind = rng.randrange(3)
            if kind == 0:
                lines.append(f"v{rng.randrange(9)} call_f{rng.randrange(3)} v{rng.randrange(9)}")
            elif kind == 1:
                lines.append(f"v{rng.randrange(9)} ret_f{rng.randrange(3)} v{rng.randrange(9)}")
            else:
                lines.append(f"v{rng.randrange(9)} a v{rng.randrange(9)}")
        g = load_graph("\n".join(lines), CSCVF)
        g2 = load_graph(serialize_graph(g), CSCVF)
        assert g2.vertex_count == g.vertex_count
        assert g2.index_universe == g.index_universe
        assert [(u, s, v) for u, s, v in g2.edges] == [(u, s, v) for u, s, v in g.edges]

    def test_label_index_lists_every_edge(self):
        g = load_graph("0 a 1\n1 a 2\n2 b 0\n", DYCK)
        a = Symbol("terminal", "a", None)
        assert g.label_index[a] == ((0, 1), (1, 2))

    @pytest.mark.parametrize("variant", ["ma1", "ma14", "ma1234"])
    def test_directly_built_graph_solves_like_the_loaded_one(self, variant):
        def t(base, tag=None):
            return Symbol("terminal", base, tag)

        text = "0 call_f1 1\n1 a 2\n2 ret_f1 3\n0 call_f2 1\n1 ret_f2 0\n3 a 3\n"
        loaded = load_graph(text, CSCVF)
        edges = (
            (0, t("call", "f1"), 1), (1, t("a"), 2), (2, t("ret", "f1"), 3),
            (0, t("call", "f2"), 1), (1, t("ret", "f2"), 0), (3, t("a"), 3),
        )
        built = LabeledGraph(4, ("0", "1", "2", "3"), edges, ("f1", "f2"))
        assert built.label_index == loaded.label_index
        flags = VariantFlags.named(variant)
        want = solve(loaded, CSCVF, flags).triples()
        assert want and solve(built, CSCVF, flags).triples() == want


class TestGenerators:
    def test_chain_structure(self):
        g = chain_graph(4)
        assert g.vertex_count == 5
        labels = [s.base for _, s, _ in g.edges]
        assert labels == ["a", "a", "b", "b"]

    def test_chain_validates_size(self):
        with pytest.raises(ValueError):
            chain_graph(3)

    def test_grid_structure(self):
        g = grid_graph(3)
        assert g.vertex_count == 9
        assert len(g.edges) == 12  # 6 rights + 6 downs
