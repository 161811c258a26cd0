import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cflr.grammar import (
    EPSILON,
    NONTERMINAL,
    TERMINAL,
    GrammarError,
    Production,
    Symbol,
    WcnfGrammar,
    WcnfViolationError,
    ensure_wcnf,
    expand_indexed,
    parse_grammar,
    preset,
    PRESET_NAMES,
    serialize_grammar,
    to_wcnf,
    validate_wcnf,
)
from cflr.cli import EXIT_INPUT, main as cli_main
from cflr.oracle import oracle_solve
from _support import naive_general_reach, random_instance, triple_names


class TestSymbol:
    def test_equal_symbols_hash_equal(self):
        a, b = Symbol("terminal", "call", "f1"), Symbol("terminal", "call", "f1")
        assert a == b and a is not b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != Symbol("nonterminal", "call", "f1") != Symbol("terminal", "call")
        assert repr(a) == "call_f1:t"

    def test_replace_and_pickle_rehash(self):
        a = Symbol("terminal", "call", "f1")
        b = a._replace(index="f2")
        assert b == Symbol("terminal", "call", "f2") != a
        assert hash(b) == hash(Symbol("terminal", "call", "f2"))
        assert {b: 1}[Symbol("terminal", "call", "f2")] == 1
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a)

    def test_pickle_from_another_hash_seed_rehashes(self):
        """String hashes differ between processes, so an unpickled symbol
        must not keep the hash its writer computed."""
        code = (
            "import pickle, sys; from cflr.grammar import Symbol; "
            "sys.stdout.buffer.write(pickle.dumps(Symbol('terminal', 'call', 'f1')))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        data = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1"),
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
        got = pickle.loads(data)
        assert {Symbol("terminal", "call", "f1"): 1}[got] == 1


def prod_names(g):
    return {
        (p.lhs.name(), tuple(s.name() for s in p.rhs)) for p in g.productions
    }


class TestParse:
    def test_simple_rule_counts(self):
        g = parse_grammar("S -> a S b | a b")
        assert len(g.nonterminals) == 1
        assert len(g.terminals) == 2
        assert len(g.productions) == 2
        assert g.start.name() == "S"

    def test_indexed_terminals(self):
        g = parse_grammar("A -> A A | a | eps\nA -> call_[i] A ret_[i]\n")
        assert g.index_variable == "i"
        assert Symbol("terminal", "call", "i") in g.terminals
        assert Symbol("terminal", "ret", "i") in g.terminals

    def test_empty_rhs_is_epsilon(self):
        g = parse_grammar("S -> ")
        assert g.productions == (Production(g.start, ()),)

    def test_comment_and_semicolon(self):
        g = parse_grammar("# header\nS -> a S b ;  # trailing\nS -> a b\n")
        assert len(g.productions) == 2

    def test_hash_inside_a_token_is_kept(self):
        """Only a token that starts with ``#`` starts a comment."""
        g = parse_grammar("S -> a b# note\nT -> a#old\n")
        assert prod_names(g) == {("S", ("a", "b#", "note")), ("T", ("a#old",))}

    def test_optional_symbol_desugars(self):
        g = parse_grammar("A -> a M?\nM -> a\n")
        assert ("A", ("a", "M")) in prod_names(g)
        assert ("A", ("a",)) in prod_names(g)

    def test_start_directive(self):
        g = parse_grammar("start: T\nS -> a\nT -> b\n")
        assert g.start.name() == "T"

    def test_second_start_directive_rejected(self):
        with pytest.raises(GrammarError) as exc:
            parse_grammar("start: S\nstart: T\nS -> a\nT -> b\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: second start directive; line 1 already names 'S'"

    def test_undeclared_start_errors(self):
        with pytest.raises(GrammarError):
            parse_grammar("start: X\nS -> a\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(GrammarError) as exc:
            parse_grammar("S -> a\nnot a rule\n")
        assert exc.value.line == 2

    def test_multiple_index_variables_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("S -> a_[i] S b_[j]\n")

    def test_mixed_indexed_unindexed_use_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("S -> load_[i] S load\n")

    def test_eps_must_stand_alone(self):
        with pytest.raises(GrammarError):
            parse_grammar("S -> a eps b\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("start: S T\nS -> a\n", 1, "start directive expects exactly one symbol"),
        ("start:\nS -> a\n", 1, "start directive expects exactly one symbol"),
        ("A B -> c\n", 1, "left-hand side must be a single symbol"),
        ("# no rules\n\n", None, "grammar has no rules"),
        ("S -> ?\n", 1, "dangling '?'"),
        ("S -> a[\n", 1, "malformed symbol token 'a['"),
        ("S? -> a\n", 1, "left-hand side cannot be optional"),
        ("eps -> a\n", 1, "'eps' cannot be a left-hand side"),
        ("A -> a\nA_[i] -> b_[i]\n", 2, "symbol 'A' used both indexed and unindexed"),
    ],
    ids=[
        "two-start-symbols", "empty-start", "two-symbol-lhs", "no-rules", "dangling-optional",
        "open-bracket", "optional-lhs", "eps-lhs", "indexed-after-plain",
    ],
)
def test_parser_refusal_names_its_line(text, line, message, tmp_path, capsys):
    """Each refusal carries its message and line, and ``cflr solve`` prints
    it as one line and exits 2."""
    with pytest.raises(GrammarError) as exc:
        parse_grammar(text)
    want = message if line is None else f"line {line}: {message}"
    assert exc.value.line == line and str(exc.value) == want
    (tmp_path / "bad.cfg").write_text(text)
    assert cli_main(["solve", "--graph", "chain(4)", "--grammar", str(tmp_path / "bad.cfg")]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"cflr: {want}\n"


class TestValidate:
    def test_cscvf_wcnf_accepted(self):
        validate_wcnf(preset("cscvf-wcnf"))

    def test_two_terminal_body_rejected(self):
        with pytest.raises(WcnfViolationError) as exc:
            validate_wcnf(parse_grammar("S -> a b"))
        assert "nonterminal operand" in str(exc.value)

    def test_long_body_rejected(self):
        with pytest.raises(WcnfViolationError) as exc:
            validate_wcnf(parse_grammar("S -> a S b"))
        assert "longer than two" in str(exc.value)

    def test_fsjpt_opt_accepted_with_families(self):
        g = validate_wcnf(preset("fsjpt-opt"))
        fams = {
            (p.lhs.name(), tuple(s.name() for s in p.rhs))
            for p in g.productions
            if g.is_indexed_symbol(p.lhs)
        }
        assert fams == {
            ("LPFS_i", ("LP_i", "FS_i")),
            ("LP_i", ("load_i", "PT")),
            ("FS_i", ("FT", "store_i")),
            ("SPFL_i", ("SP_i", "FL_i")),
            ("SP_i", ("store_bar_i", "PT")),
            ("FL_i", ("FT", "load_bar_i")),
        }

    def test_unit_rule_accepted(self):
        g = validate_wcnf(parse_grammar("V -> M | eps\nM -> a\n"))
        assert g.unit_rules == ((Symbol("nonterminal", "V"), Symbol("nonterminal", "M")),)

    def test_rule_categories_cover_all_productions(self):
        g = validate_wcnf(preset("fsca-wcnf"))
        n_term = sum(len(v) for v in g.terminal_rules.values())
        assert n_term + len(g.binary_rules) + len(g.unit_rules) == len(g.productions)

    def test_indexed_lhs_needs_indexed_operand(self):
        with pytest.raises(WcnfViolationError):
            validate_wcnf(parse_grammar("A_[i] -> B C\nB -> a_[i]\nC -> c\n"))

    @pytest.mark.parametrize(
        "text, written",
        [
            ("X_[i] -> b\n", "X_i -> b"),
            ("A_[i] -> B\nB -> b\n", "A_i -> B"),
            ("A_[i] -> b c\n", "A_i -> b c"),
            ("A_[i] -> b c d\n", "A_i -> b c d"),
        ],
    )
    def test_index_rule_violation_quoted_as_written(self, text, written):
        """``to_wcnf`` cannot repair the index rule, so it reports the
        production as written, not a rewrite of it."""
        with pytest.raises(GrammarError) as exc:
            to_wcnf(parse_grammar(text))
        assert isinstance(exc.value, WcnfViolationError)
        assert exc.value.violations == [f"{written}: indexed result requires an indexed operand"]


class TestToWcnf:
    def test_output_always_validates(self):
        for name in PRESET_NAMES:
            validate_wcnf(to_wcnf(preset(name)))

    def test_dyck_shape(self):
        g = to_wcnf(parse_grammar("S -> a S b"))
        assert all(len(p.rhs) <= 2 for p in g.productions)
        lifted = {p.lhs.name() for p in g.productions if len(p.rhs) == 1}
        assert {"a#t", "b#t"} <= lifted

    def test_already_wcnf_unchanged(self):
        g = preset("fsca-wcnf")
        assert to_wcnf(g).productions == g.productions

    def test_valid_mixed_binary_rule_kept(self):
        g = preset("cscvf-wcnf")
        out = to_wcnf(g)
        assert ("A", ("A", "a")) in prod_names(out)

    def test_helper_keeps_index_tie(self):
        # the index variable spans the split, so the helper must carry it
        g = to_wcnf(parse_grammar("V -> f_bar_[i] V f_[i]"))
        helpers = [p for p in g.productions if p.lhs.base == "V#1"]
        assert helpers and all(p.lhs.index == "i" for p in helpers)

    def test_dropped_index_collapses_in_helper(self):
        # index fully inside the prefix: helper is existential, not indexed
        g = to_wcnf(parse_grammar("P -> load_[i] Q store_[i] P\nQ -> a\n"))
        by_base = {p.lhs.base: p for p in g.productions if p.lhs.base.startswith("P#")}
        assert by_base["P#1"].lhs.index == "i"
        assert by_base["P#2"].lhs.index is None

    @pytest.mark.parametrize("name", ["fica", "fsca", "cscvf", "fsjpt"])
    def test_language_equivalence_against_general_closure(self, name):
        raw = preset(name)
        wcnf = to_wcnf(raw)
        original = {s.name() for s in raw.nonterminals}
        rng = random.Random(hash(name) % 10_000)
        for _ in range(6):
            graph = random_instance(wcnf, rng, max_vertices=8, max_edges=20, max_indices=2)
            slow = {t for t in naive_general_reach(graph, raw) if t[0] in original}
            fast = {
                t for t in triple_names(oracle_solve(graph, wcnf)) if t[0] in original
            }
            assert slow == fast


class TestPresets:
    def test_all_presets_parse_and_normalize(self):
        for name in PRESET_NAMES:
            ensure_wcnf(preset(name))

    def test_unknown_preset(self):
        with pytest.raises(GrammarError):
            preset("nope")

    def test_cscvf_wcnf_structure(self):
        g = preset("cscvf-wcnf")
        assert prod_names(g) == {
            ("A", ("A", "a")),
            ("A", ("A", "AH")),
            ("A", ()),
            ("AH", ("call_i", "AR_i")),
            ("AR_i", ("A", "ret_i")),
        }

    def test_fica_opt_structure(self):
        g = preset("fica-opt")
        assert prod_names(g) == {
            ("M", ("N1", "N3")),
            ("M", ("N2", "N3")),
            ("N1", ("d_bar",)),
            ("N1", ("N1", "a_bar")),
            ("N1", ("N2", "a_bar")),
            ("N2", ("N1", "M")),
            ("N3", ("d",)),
            ("N3", ("a", "N3")),
            ("N3", ("AM", "N3")),
            ("AM", ("a", "M")),
        }

    def test_fsjpt_structure(self):
        g = preset("fsjpt")
        assert prod_names(g) == {
            ("PT", ("PTH", "alloc")),
            ("PTH", ()),
            ("PTH", ("assign", "PTH")),
            ("PTH", ("load_i", "Al", "store_i", "PTH")),
            ("FT", ("alloc_bar", "FTH")),
            ("FTH", ()),
            ("FTH", ("assign_bar", "FTH")),
            ("FTH", ("store_bar_i", "Al", "load_bar_i", "FTH")),
            ("Al", ("PT", "FT")),
        }

    def test_fsca_optional_desugared(self):
        g = preset("fsca")
        names = prod_names(g)
        assert ("A", ("a", "M")) in names
        assert ("A", ("a",)) in names
        assert ("A", ()) in names
        assert ("A_bar", ("M", "a_bar")) in names
        assert ("A_bar", ("a_bar",)) in names

    def test_round_trip_serialization(self):
        for name in PRESET_NAMES:
            g = preset(name)
            assert parse_grammar(serialize_grammar(g)) == g

    @pytest.mark.parametrize(
        "form",
        [preset, lambda n: to_wcnf(preset(n)), lambda n: ensure_wcnf(preset(n))],
        ids=["raw", "to_wcnf", "ensure_wcnf"],
    )
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_normal_forms_read_back(self, name, form):
        """Helper names such as ``a#t`` and ``S#1`` survive the comment rule."""
        assert_reads_back(form(name))


class TestExpandIndexed:
    def test_expansion_instantiates_families(self):
        g = validate_wcnf(preset("cscvf-wcnf"))
        gx = expand_indexed(g, ("f1", "f2"))
        names = prod_names(gx)
        assert ("AR_f1", ("A", "ret_f1")) in names
        assert ("AR_f2", ("A", "ret_f2")) in names
        assert ("AH", ("call_f1", "AR_f1")) in names
        assert not gx.is_indexed

    def test_empty_universe_drops_families(self):
        g = validate_wcnf(preset("cscvf-wcnf"))
        gx = expand_indexed(g, ())
        assert prod_names(gx) == {("A", ("A", "a")), ("A", ("A", "AH")), ("A", ())}

    def test_plain_grammar_unchanged(self):
        g = ensure_wcnf(preset("dyck"))
        assert expand_indexed(g, ("f1",)) is g

    def test_epsilon_key_groups_epsilon_rules(self):
        g = validate_wcnf(preset("cscvf-wcnf"))
        assert [s.name() for s in g.terminal_rules[EPSILON]] == ["A"]


def assert_reads_back(g):
    back = parse_grammar(serialize_grammar(g))
    assert (back.productions, back.start, back.index_variable) == (
        g.productions,
        g.start,
        g.index_variable,
    )


def assert_symbol_sets_derived(g):
    named = {s for p in g.productions for s in (p.lhs, *p.rhs)}
    assert g.nonterminals == {s for s in named if s.kind == NONTERMINAL}
    assert g.terminals == {s for s in named if s.kind == TERMINAL}


_BASES = ["S", "A", "B", "a", "b", "c"]


@st.composite
def grammar_texts(draw):
    """Grammar text over a few bases, each of which is used either indexed
    or plain throughout: optional symbols, ``eps``, unit rules, long bodies
    and trailing comments."""
    indexed = {base: draw(st.booleans()) for base in _BASES}

    def token(base):
        return f"{base}_[i]" if indexed[base] else base

    body = st.lists(
        st.tuples(st.sampled_from(_BASES), st.booleans()), min_size=1, max_size=4
    ).map(lambda syms: " ".join(token(b) + ("?" if opt else "") for b, opt in syms))
    alternatives = st.lists(st.one_of(st.just("eps"), body), min_size=1, max_size=3)
    rule = st.tuples(st.sampled_from(_BASES[:3]), alternatives)
    rules = draw(st.lists(rule, min_size=1, max_size=5))
    lines = [f"{token(lhs)} -> {' | '.join(alts)}" for lhs, alts in rules]
    if draw(st.booleans()):
        lines.insert(0, f"start: {token(draw(st.sampled_from([lhs for lhs, _ in rules])))}")
    return "".join(line + draw(st.sampled_from(["", " # note", "\t#note"])) + "\n" for line in lines)


@given(grammar_texts(), st.sampled_from([(), ("f1",), ("f1", "f2")]))
@settings(max_examples=150, deadline=None)
def test_generated_grammars_derive_their_facts(text, tags):
    """Each grammar's symbol sets are the symbols its productions name, a
    production of the wrong shape cannot enter a ``WcnfGrammar``, and the
    raw and normal forms read back from their text."""
    g = parse_grammar(text)
    assert_symbol_sets_derived(g)
    assert_reads_back(g)
    try:
        w = to_wcnf(g)
    except WcnfViolationError as exc:
        # the one shape to_wcnf leaves as written
        assert all(v.endswith(": indexed result requires an indexed operand") for v in exc.violations)
        return
    assert ensure_wcnf(g) == w
    assert_symbol_sets_derived(w)
    assert_reads_back(w)
    assert_symbol_sets_derived(expand_indexed(w, tags))
    for bad in ((w.start,) * 3, (Symbol(TERMINAL, "z"),) * 2):
        with pytest.raises(WcnfViolationError):
            WcnfGrammar((*w.productions, Production(w.start, bad)), w.start, w.index_variable)
