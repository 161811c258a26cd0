import argparse
import io
import re
from pathlib import Path

import pytest

import cflr.cli
from cflr.cli import (
    EXIT_DIVERGENCE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    build_parser,
    main,
    run_check,
)
from cflr.grammar import ensure_wcnf, preset
from cflr.graph import load_graph
from cflr.solver import VariantFlags, solve


@pytest.fixture
def dyck_path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("0 a 1\n1 a 2\n2 b 3\n3 b 4\n")
    return p


@pytest.fixture
def dyck_grammar_file(tmp_path):
    p = tmp_path / "dyck.cfg"
    p.write_text("S -> a S b | a b\n")
    return p


def read(path):
    return path.read_text()


class TestSolveCommand:
    def test_pairs_output(self, tmp_path, dyck_path_graph, dyck_grammar_file):
        out = tmp_path / "pairs.txt"
        rep = tmp_path / "report.txt"
        rc = main(
            [
                "solve",
                "--graph", str(dyck_path_graph),
                "--grammar", str(dyck_grammar_file),
                "--variant", "ma",
                "--output", str(out),
                "--report", str(rep),
            ]
        )
        assert rc == EXIT_OK
        assert read(out) == "0 4\n1 3\n"
        report = dict(
            line.split("=", 1) for line in read(rep).strip().splitlines()
        )
        assert report["variant"] == "ma"
        assert report["pairs.S"] == "2"
        assert int(report["pairs_total"]) == int(report["pairs.S"]) + int(
            report["pairs.a#t"]
        ) + int(report["pairs.b#t"]) + int(report["pairs.S#1"])
        assert int(report["iterations"]) > 0
        assert float(report["wall_seconds"]) >= 0

    def test_unknown_variant_is_usage_error(self, dyck_path_graph, dyck_grammar_file):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "solve",
                    "--graph", str(dyck_path_graph),
                    "--grammar", str(dyck_grammar_file),
                    "--variant", "ma9",
                ]
            )
        assert exc.value.code == EXIT_USAGE

    def test_ma12345_selects_opt_preset(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 alloc 1\n")
        out = tmp_path / "pairs.txt"
        rep = tmp_path / "rep.txt"
        rc = main(
            [
                "solve",
                "--graph", str(graph),
                "--preset", "fsjpt",
                "--variant", "ma12345",
                "--output", str(out),
                "--report", str(rep),
            ]
        )
        assert rc == EXIT_OK
        assert "grammar=fsjpt-opt" in read(rep)
        assert read(out) == "0 1\n"  # PT -> alloc in the tuned grammar

    def test_ma12345_with_grammar_file_rejected(self, dyck_path_graph, dyck_grammar_file):
        rc = main(
            [
                "solve",
                "--graph", str(dyck_path_graph),
                "--grammar", str(dyck_grammar_file),
                "--variant", "ma12345",
            ]
        )
        assert rc == EXIT_INPUT

    def test_ma12345_is_ma1234_on_the_tuned_grammar(self, tmp_path, monkeypatch):
        graph = tmp_path / "g.txt"
        graph.write_text("0 d_bar 1\n1 d 2\n")
        out, rep = tmp_path / "pairs.txt", tmp_path / "rep.txt"
        seen = []

        def recording(graph, g, flags, **kwargs):
            seen.append((g, flags))
            return solve(graph, g, flags, **kwargs)

        monkeypatch.setattr(cflr.cli, "solve", recording)
        argv = ["solve", "--graph", str(graph), "--preset", "fica", "--variant", "ma12345"]
        assert main(argv + ["--output", str(out), "--report", str(rep)]) == EXIT_OK
        assert seen == [(ensure_wcnf(preset("fica-opt")), VariantFlags.named("ma1234"))]
        report = read(rep).splitlines()
        assert report[:2] == ["variant=ma12345", "grammar=fica-opt"]
        assert read(out) == "0 2\n"

    def test_non_numeric_vertex_names_sort_by_name(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("n9 a m\nm b n8\nn10 a k\nk b n11\n")
        out = tmp_path / "pairs.txt"
        argv = ["solve", "--graph", str(graph), "--preset", "dyck", "--output", str(out)]
        assert main(argv + ["--report", str(tmp_path / "r.txt")]) == EXIT_OK
        assert read(out) == "n10 n11\nn9 n8\n"

    def test_missing_grammar(self, dyck_path_graph):
        rc = main(["solve", "--graph", str(dyck_path_graph), "--variant", "ma"])
        assert rc == EXIT_INPUT

    def test_synthetic_instance_defaults_to_dyck(self, tmp_path):
        out = tmp_path / "pairs.txt"
        rc = main(
            [
                "solve",
                "--graph", "chain(4)",
                "--variant", "ma1",
                "--output", str(out),
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == EXIT_OK
        assert read(out) == "0 4\n1 3\n"

    def test_nonterminal_selection(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 call_f1 1\n1 ret_f1 2\n")
        out = tmp_path / "pairs.txt"
        rc = main(
            [
                "solve",
                "--graph", str(graph),
                "--preset", "cscvf-wcnf",
                "--variant", "ma14",
                "--nonterminal", "AR_f1",
                "--output", str(out),
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == EXIT_OK
        # only A(1,1) reaches the ret_f1 edge, so the family member holds (1,2)
        assert read(out) == "1 2\n"

    def test_unknown_nonterminal(self, tmp_path, dyck_path_graph, dyck_grammar_file):
        rc = main(
            [
                "solve",
                "--graph", str(dyck_path_graph),
                "--grammar", str(dyck_grammar_file),
                "--variant", "ma",
                "--nonterminal", "Bogus",
                "--output", str(tmp_path / "p.txt"),
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == EXIT_INPUT

    def test_unknown_nonterminal_lists_the_names_it_accepts(self, capsys):
        """Every nonterminal of the grammar is listed, ``M`` and ``DV``
        too, though they have no pair on a chain of ``a`` edges."""
        argv = ["solve", "--graph", "chain(4)", "--preset", "fsca-wcnf", "--nonterminal", "d"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "cflr: unknown nonterminal 'd'; known: A, A_bar, DV, M, V\n"
        )

    @pytest.mark.parametrize("variant", ["ma", "ma1", "ma14"])
    def test_unknown_nonterminal_is_refused_before_the_solve(
        self, variant, tmp_path, capsys, monkeypatch
    ):
        """A misspelt name exits at once, naming the plain nonterminals and
        a family member for each of the graph's tags, and writes no file."""

        def no_solve(*args, **kwargs):
            raise AssertionError("solved for a name that names no nonterminal")

        monkeypatch.setattr(cflr.cli, "solve", no_solve)
        graph = tmp_path / "g.txt"
        graph.write_text("0 call_f0 1\n1 a 2\n2 ret_f0 3\n3 call_f1 4\n")
        out = tmp_path / "p.txt"
        argv = ["solve", "--graph", str(graph), "--preset", "cscvf-wcnf", "--variant", variant]
        assert main(argv + ["--nonterminal", "AR_f2", "--output", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", "cflr: unknown nonterminal 'AR_f2'; known: A, AH, AR_f0, AR_f1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["ma1", "ma14"])
    @pytest.mark.parametrize("terminal", ["d", "f_f0"])
    def test_terminal_is_not_a_nonterminal(self, tmp_path, capsys, variant, terminal):
        """Terminals that are rule operands are stored beside the
        nonterminals (``f_f0`` as a family member under ma14), but
        ``--nonterminal`` does not answer with their edges."""
        graph = tmp_path / "g.txt"
        graph.write_text("0 d 1\n1 f_f0 2\n2 f_bar_f0 3\n3 d_bar 4\n")
        argv = ["solve", "--graph", str(graph), "--preset", "fsca-wcnf", "--variant", variant]
        assert main(argv + ["--nonterminal", "DV"]) == EXIT_OK
        assert capsys.readouterr().out == "3 4\n"
        assert main(argv + ["--nonterminal", terminal]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cflr: unknown nonterminal '{terminal}';")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("variant", ["ma1", "ma14"])
    def test_nonterminal_named_only_by_indexed_productions(self, variant, tmp_path, capsys):
        """The graph has no tag, so ma1's expansion drops ``A -> c_[i]``;
        ``A`` is still a nonterminal of the grammar, and it has no pairs."""
        (tmp_path / "a.cfg").write_text("start: S\nS -> a\nA -> c_[i]\n")
        argv = ["solve", "--graph", "chain(4)", "--grammar", str(tmp_path / "a.cfg")]
        argv += ["--variant", variant, "--nonterminal", "A", "--report", str(tmp_path / "r.txt")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == ("", "")

    def test_timeout_exit_code(self, tmp_path):
        rc = main(
            [
                "solve",
                "--graph", "chain(512)",
                "--variant", "ma",
                "--timeout-secs", "0",
                "--output", str(tmp_path / "p.txt"),
                "--report", str(tmp_path / "r.txt"),
            ]
        )
        assert rc == EXIT_TIMEOUT


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--graph", "chain(4)", "--timeout-secs", "nan"],
        ["bench", "--graph", "chain(4)", "--reps", "0"],
        ["solve", "--graph", "chain(4)", "--timeout-secs", "-1"],
        ["check", "--graph", "chain(4)", "--oracle-limit", "-1"],
    ],
)
def test_bad_numeric_flag_is_one_line_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cflr: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "check", "bench"])
def test_growth_factor_is_not_an_option(command, capsys):
    """The forest growth factor is fixed at 10, so ``--b`` is an
    unrecognized argument."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "chain(4)", "--b", "3"])
    assert exc.value.code == EXIT_USAGE
    assert "error: unrecognized arguments: --b 3" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["chain(3)", "grid(0)"])
def test_bad_synthetic_size_is_one_line_input_error(spec, capsys):
    assert main(["solve", "--graph", spec]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cflr: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--graph", "chain(4)", "--output", "{bad}", "--report", "{ok}"],
        ["solve", "--graph", "chain(4)", "--output", "{ok}", "--report", "{bad}"],
        ["bench", "--graph", "chain(4)", "--variants", "ma1", "--reps", "1", "--report", "{bad}"],
    ],
)
def test_unwritable_path_is_one_line_input_error(argv, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output paths were opened")

    monkeypatch.setattr(cflr.cli, "solve", no_solve)
    bad = str(tmp_path / "no-such-dir" / "x.txt")
    argv = [a.format(bad=bad, ok=tmp_path / "ok.txt") for a in argv]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"cflr: cannot write {bad}: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--graph", "--grammar"])
def test_undecodable_input_file_is_one_line_input_error(flag, tmp_path, capsys):
    files = {"--graph": tmp_path / "g.txt", "--grammar": tmp_path / "g.cfg"}
    files["--graph"].write_text("0 a 1\n")
    files["--grammar"].write_text("S -> a b\n")
    files[flag].write_bytes(b"\xff 0 a 1\n")
    argv = ["solve", "--graph", str(files["--graph"]), "--grammar", str(files["--grammar"])]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    what = flag.lstrip("-")
    assert captured.err.startswith(f"cflr: cannot read {what}: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "check", "bench"])
def test_grammar_and_preset_together_is_one_line_usage_error(command, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved although both grammar flags were given")

    monkeypatch.setattr(cflr.cli, "solve", no_solve)
    monkeypatch.setattr(cflr.cli, "oracle_solve", no_solve)
    # neither file exists, so reading either one first would exit 2
    missing = str(tmp_path / "missing")
    argv = [command, "--graph", missing + ".txt", "--preset", "dyck", "--grammar", missing + ".cfg"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cflr: pass either --grammar or --preset, not both\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--graph", "chain(4)", "--variants", ",,"],
        ["bench", "--graph", "chain(4)", "--variants", " , "],
        ["check", "--graph", "chain(4)", "--variants", "ma1,ma9"],
        ["bench", "--graph", "chain(4)", "--variants", "ma1,,bogus"],
        # ma12345 is a grammar choice; refused before the (missing) graph is read
        ["check", "--graph", "missing.txt", "--preset", "fsjpt", "--variants", "ma1,ma12345"],
        ["bench", "--graph", "missing.txt", "--preset", "fsjpt", "--variants", "ma12345"],
    ],
    ids=[
        "check-empty", "bench-empty", "check-unknown", "bench-unknown",
        "check-ma12345", "bench-ma12345",
    ],
)
def test_bad_variant_list_is_one_line_usage_error(argv, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the variant list was checked")

    monkeypatch.setattr(cflr.cli, "solve", no_solve)
    monkeypatch.setattr(cflr.cli, "oracle_solve", no_solve)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cflr: --variants ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "grammar, graph, err",
    [
        # the family's name A_i is also the name of the member tagged i
        (
            "start: A_[i]\nA_[i] -> x_[i]\n",
            "0 x_f1 1\n5 x_i 6\n",
            "start symbol A_[i] is an indexed family; "
            "pass --nonterminal with one of its members: A_f1, A_i",
        ),
        (
            "start: A_[i]\nA_[i] -> x_[i]\n",
            "0 x_f1 1\n",
            "start symbol A_[i] is an indexed family; "
            "pass --nonterminal with one of its members: A_f1",
        ),
        (
            "start: S\nstart: T\nS -> a\nT -> b\n",
            "0 a 1\n",
            "line 2: second start directive; line 1 already names 'S'",
        ),
    ],
    ids=["indexed-start-member-named-like-family", "indexed-start", "second-start"],
)
@pytest.mark.parametrize("variant", ["ma", "ma1", "ma14"])
def test_refused_start_symbol_is_one_line_input_error(grammar, graph, err, variant, tmp_path, capsys):
    (tmp_path / "a.cfg").write_text(grammar)
    (tmp_path / "g.txt").write_text(graph)
    argv = ["solve", "--graph", str(tmp_path / "g.txt"), "--grammar", str(tmp_path / "a.cfg")]
    assert main(argv + ["--variant", variant]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cflr: {err}\n"


@pytest.mark.parametrize(
    "grammar",
    [
        "start: S\nS -> A_[i] a\nA_[i] -> B\nB -> b\n",
        "S -> a b\nS a b\n",
        "start: S\nS -> a\nstart: S\n",
        "S -> a_[i] S a\n",
        "S -> a_[i] S b_[j]\n",
    ],
    ids=["index-rule", "no-arrow", "second-start", "indexed-and-unindexed", "two-index-variables"],
)
@pytest.mark.parametrize("command", ["solve", "check", "bench"])
def test_bad_grammar_is_one_line_input_error(command, grammar, tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text(grammar)
    assert main([command, "--graph", "chain(4)", "--grammar", str(tmp_path / "bad.cfg")]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cflr: ") and captured.err.count("\n") == 1


class TestCheckCommand:
    def test_all_variants_agree(self, dyck_path_graph, dyck_grammar_file):
        rc = main(
            [
                "check",
                "--graph", str(dyck_path_graph),
                "--grammar", str(dyck_grammar_file),
            ]
        )
        assert rc == EXIT_OK

    def test_empty_graph_ok(self, tmp_path, dyck_grammar_file):
        graph = tmp_path / "empty.txt"
        graph.write_text("# nothing here\n")
        rc = main(
            ["check", "--graph", str(graph), "--grammar", str(dyck_grammar_file)]
        )
        assert rc == EXIT_OK

    def test_corrupted_solver_reports_divergence(self):
        g = ensure_wcnf(preset("dyck"))
        graph = load_graph("0 a 1\n1 a 2\n2 b 3\n3 b 4\n", g)

        def corrupted(graph, g, flags):
            result = solve(graph, g, flags)
            victim = sorted(result.triples(), key=lambda t: (t[0].name(), t[1], t[2]))[0]

            class Fake:
                def triples(self):
                    return frozenset(t for t in result.triples() if t != victim)

            return Fake()

        buf = io.StringIO()
        rc = run_check(graph, g, ["ma1"], solve_fn=corrupted, out=buf)
        assert rc == EXIT_DIVERGENCE
        text = buf.getvalue()
        assert "divergence:" in text and "pair=(" in text and "oracle=present" in text

    def test_oracle_guard(self, tmp_path, dyck_grammar_file):
        graph = tmp_path / "big.txt"
        graph.write_text("\n".join(f"{i} a {i + 1}" for i in range(600)))
        args = ["check", "--graph", str(graph), "--grammar", str(dyck_grammar_file)]
        assert main(args) == EXIT_INPUT
        assert main(args + ["--oracle-limit", "1000"]) == EXIT_OK


class TestBenchCommand:
    def _records(self, text):
        records = []
        for block in text.strip().split("\n\n"):
            records.append(
                dict(line.split("=", 1) for line in block.strip().splitlines())
            )
        return records

    def test_single_rep_has_no_std(self, tmp_path):
        rep = tmp_path / "bench.txt"
        rc = main(
            [
                "bench",
                "--graph", "chain(16)",
                "--variants", "ma,ma1",
                "--reps", "1",
                "--report", str(rep),
            ]
        )
        assert rc == EXIT_OK
        for rec in self._records(read(rep)):
            assert rec["std_seconds"] == "n/a"
            assert rec["reps"] == "1"

    def test_variants_report_identical_pair_counts(self, tmp_path):
        rep = tmp_path / "bench.txt"
        rc = main(
            [
                "bench",
                "--graph", "chain(16)",
                "--variants", "ma,ma1,ma14,ma1234",
                "--reps", "2",
                "--report", str(rep),
            ]
        )
        assert rc == EXIT_OK
        records = self._records(read(rep))
        assert len(records) == 4
        pair_keys = [
            {k: v for k, v in rec.items() if k.startswith("pairs")} for rec in records
        ]
        assert all(pk == pair_keys[0] for pk in pair_keys)
        assert all("mean_seconds" in rec for rec in records)

    def test_timeout_reports_every_variant_out_of_time(self, tmp_path):
        rep = tmp_path / "bench.txt"
        argv = ["bench", "--graph", "chain(16)", "--timeout-secs", "0", "--reps", "2"]
        assert main(argv + ["--report", str(rep)]) == EXIT_TIMEOUT
        records = self._records(read(rep))
        assert [r["variant"] for r in records] == ["ma", "ma1", "ma14", "ma1234"]
        assert all(r["status"] == "oot" and r["timeout_secs"] == "0.0" for r in records)

    def test_counter_ratio_visible_in_bench(self, tmp_path):
        rep = tmp_path / "bench.txt"
        rc = main(
            [
                "bench",
                "--graph", "chain(128)",
                "--variants", "ma,ma1",
                "--reps", "1",
                "--report", str(rep),
            ]
        )
        assert rc == EXIT_OK
        rec = {r["variant"]: r for r in self._records(read(rep))}
        assert int(rec["ma"]["scalar_ops"]) > int(rec["ma1"]["scalar_ops"])


def _readme_command_line() -> str:
    """README's "Command line" section, up to the next top-level heading."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = text.index("\n## Command line\n")
    return text[start : text.index("\n## ", start + 1)]


def test_readme_names_only_flags_the_parser_accepts():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_command_line()))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    assert len(named) > 5 and named <= accepted, named - accepted


def test_readme_report_keys_are_the_keys_written(tmp_path):
    section = _readme_command_line()
    listed = section[section.index("Keys:") : section.index("Counters and pair files")]
    documented = set(re.findall(r"`([a-z_]+)`", listed))
    reports = [tmp_path / f"{name}.txt" for name in ("solve", "bench", "oot")]
    runs = [
        ["solve", "--graph", "chain(4)", "--output", str(tmp_path / "p.txt")],
        ["bench", "--graph", "chain(4)", "--variants", "ma1", "--reps", "1"],
        ["bench", "--graph", "chain(4)", "--variants", "ma1", "--timeout-secs", "0"],
    ]
    for argv, report in zip(runs, reports):
        main(argv + ["--report", str(report)])
    written = {
        line.split("=", 1)[0]
        for report in reports
        for line in read(report).splitlines()
        if line and not line.startswith("pairs.")
    }
    assert documented == written
