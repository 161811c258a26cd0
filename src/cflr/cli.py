"""Command-line front end: solve one instance, cross-check variants against
the brute-force oracle, or benchmark variants with repetitions.

Exit codes: 0 ok, 1 usage, 2 input error, 3 divergence (check), 4 timeout.
"""

from __future__ import annotations

import argparse
import re
import statistics
import sys
import time
from contextlib import ExitStack
from itertools import chain
from typing import Iterable

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None

from .grammar import (
    GrammarError,
    OPT_GRAMMAR_FOR,
    Symbol,
    WcnfGrammar,
    ensure_wcnf,
    parse_grammar,
    preset,
)
from .graph import GraphFormatError, LabeledGraph, chain_graph, grid_graph, load_graph
from .oracle import oracle_solve
from .solver import VARIANT_NAMES, SolveTimeout, VariantFlags, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DIVERGENCE = 3
EXIT_TIMEOUT = 4

_SYNTHETIC = re.compile(r"^(chain|grid)\((\d+)\)$")


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# smallest accepted value of each numeric flag; a flag a command lacks is
# skipped
_MINIMUMS = {"reps": 1, "timeout_secs": 0, "oracle_limit": 0}


def _variants(args) -> list[str]:
    return [v.strip() for v in args.variants.split(",") if v.strip()]


def _bad_usage(args) -> str | None:
    """The problem with the numeric flags, the grammar flags or the variant
    list, if any."""
    for attr, low in _MINIMUMS.items():
        value = getattr(args, attr, None)
        if value is not None and not value >= low:  # NaN fails too
            return f"--{attr.replace('_', '-')} must be at least {low}, got {value}"
    if args.grammar is not None and args.preset is not None:
        return "pass either --grammar or --preset, not both"
    if getattr(args, "variants", None) is not None:
        names = _variants(args)
        if "ma12345" in names:
            # the fifth optimization is a grammar choice, which --variants
            # cannot make once per variant
            tuned = ", ".join(sorted(set(OPT_GRAMMAR_FOR.values())))
            return (
                "--variants cannot run ma12345, ma1234 on a hand-tuned grammar: "
                f"pass ma1234 with --preset <name>-opt (tuned presets: {tuned})"
            )
        if not names or not set(names) <= set(VARIANT_NAMES):
            return (
                f"--variants needs one or more of {', '.join(VARIANT_NAMES)}, "
                f"got {args.variants!r}"
            )
    return None


def _peak_memory_bytes() -> int:
    """Best-effort OS high-water mark of this process so far."""
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _load_grammar(args) -> tuple[WcnfGrammar, str]:
    ma12345 = getattr(args, "variant", None) == "ma12345"
    if ma12345 and args.preset not in OPT_GRAMMAR_FOR:
        raise CliInputError(
            "variant ma12345 runs the hand-tuned counterpart of a preset grammar; "
            f"pass --preset with one of {', '.join(OPT_GRAMMAR_FOR)}"
        )
    if args.preset:
        name = OPT_GRAMMAR_FOR[args.preset] if ma12345 else args.preset
        return ensure_wcnf(preset(name)), name
    if args.grammar:
        try:
            with open(args.grammar, "r", encoding="utf-8") as fh:
                cfg = parse_grammar(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise CliInputError(f"cannot read grammar: {exc}") from exc
        return ensure_wcnf(cfg), args.grammar
    if args.graph and _SYNTHETIC.match(args.graph):
        return ensure_wcnf(preset("dyck")), "dyck"
    raise CliInputError("a grammar is required: pass --grammar FILE or --preset NAME")


def _load_graph(args, g: WcnfGrammar) -> tuple[LabeledGraph, str]:
    spec = args.graph
    m = _SYNTHETIC.match(spec)
    if m:
        kind, size = m.group(1), int(m.group(2))
        try:
            graph = chain_graph(size) if kind == "chain" else grid_graph(size)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        return graph, spec
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read graph: {exc}") from exc
    return load_graph(text, g, index_separator=args.index_separator), spec


def _nonterminals_by_name(g: WcnfGrammar, graph: LabeledGraph) -> dict[str, Symbol]:
    """The nonterminals of the loaded grammar by the names ``--nonterminal``
    accepts: the plain ones first, then a family member for each of the
    graph's tags; a name keeps the first symbol that has it.  Which stores
    a variant makes does not matter."""
    ordered = sorted(g.nonterminals, key=lambda s: (s.base, s.index or ""))
    plain = (s for s in ordered if not g.is_indexed_symbol(s))
    members = (
        Symbol(s.kind, s.base, tag)
        for s in ordered
        if g.is_indexed_symbol(s)
        for tag in graph.index_universe
    )
    named: dict[str, Symbol] = {}
    for s in chain(plain, members):
        named.setdefault(s.name(), s)
    return named


def _format_pairs(graph: LabeledGraph, pairs: Iterable[tuple[int, int]]) -> str:
    """The pairs by vertex name in one sort: as ints when every name is
    decimal, and then ties (``01`` and ``1``) by vertex id."""
    names = graph.vertex_names
    rows = [(names[u], names[v], u, v) for u, v in pairs]
    if all(a.isdecimal() and b.isdecimal() for a, b, _, _ in rows):
        rows.sort(key=lambda r: (int(r[0]), int(r[1]), r[2], r[3]))
    else:
        rows.sort()
    return "".join(f"{a} {b}\n" for a, b, _, _ in rows)


def _report_record(
    variant: str,
    grammar_id: str,
    graph_id: str,
    result,
    wall_seconds: float,
    peak_mem_bytes: int,
    extra: list[str] | None = None,
) -> str:
    counts = result.matrices.pair_counts()
    lines = [
        f"variant={variant}",
        f"grammar={grammar_id}",
        f"graph={graph_id}",
        f"iterations={result.iterations}",
        f"wall_seconds={wall_seconds:.6f}",
        f"peak_mem_bytes={peak_mem_bytes}",
        f"spgemm_calls={result.counters.spgemm_calls}",
        f"scalar_ops={result.counters.scalar_ops}",
        f"union_entries={result.counters.union_entries}",
        f"pairs_total={sum(counts.values())}",
    ]
    lines.extend(f"pairs.{name}={c}" for name, c in counts.items())
    if extra:
        lines.extend(extra)
    return "\n".join(lines) + "\n"


def _open(path: str | None, default_stream, files: ExitStack):
    """The stream a command writes to: stdout for '-', ``default_stream``
    without a path, else the file, opened (and emptied) at once, so that a
    path that cannot be written is reported before any work.  ``files``
    closes it."""
    if path is None or path == "-":
        return sys.stdout if path == "-" else default_stream
    try:
        return files.enter_context(open(path, "w", encoding="utf-8"))
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(stream, text: str) -> None:
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        raise CliInputError(f"cannot write {stream.name}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args, files: ExitStack) -> int:
    g, grammar_id = _load_grammar(args)
    graph, graph_id = _load_graph(args, g)
    if not args.nonterminal and g.is_indexed_symbol(g.start):
        # the family's name, such as A_i, is also the name of its member
        # whose tag is i, so it cannot stand for the whole family
        members = ", ".join(f"{g.start.base}_{tag}" for tag in graph.index_universe)
        raise CliInputError(
            f"start symbol {g.start.base}_[{g.start.index}] is an indexed family; "
            f"pass --nonterminal with one of its members: {members or '(none)'}"
        )
    target = args.nonterminal or g.start.name()
    named = _nonterminals_by_name(g, graph)
    sym = named.get(target)
    if sym is None:
        raise CliInputError(
            f"unknown nonterminal {target!r}; known: " + (", ".join(named) or "(none)")
        )
    out = _open(args.output, sys.stdout, files)
    rep = _open(args.report, sys.stderr, files)
    flags = VariantFlags.named("ma1234" if args.variant == "ma12345" else args.variant)
    deadline = None
    if args.timeout_secs is not None:
        deadline = time.monotonic() + args.timeout_secs
    t0 = time.perf_counter()
    result = solve(graph, g, flags, deadline=deadline)
    wall = time.perf_counter() - t0
    # read before the pairs and their counts are built
    peak = _peak_memory_bytes()

    _write(out, _format_pairs(graph, result.matrices.member(sym).entries()))
    _write(rep, _report_record(args.variant, grammar_id, graph_id, result, wall, peak))
    return EXIT_OK


def run_check(
    graph: LabeledGraph,
    g: WcnfGrammar,
    variants: list[str],
    solve_fn=solve,
    out=sys.stdout,
) -> int:
    """Solve with every variant and compare against the oracle; print the
    first divergence and return the matching exit code."""
    reference = oracle_solve(graph, g)
    for variant in variants:
        got = solve_fn(graph, g, VariantFlags.named(variant)).triples()
        if got == reference:
            del got  # not kept through the next variant's solve
            continue
        sym, i, j = min(reference ^ got, key=lambda t: (t[0].name(), t[1], t[2]))
        in_oracle = (sym, i, j) in reference
        out.write(
            f"divergence: nonterminal={sym.name()} "
            f"pair=({graph.vertex_names[i]}, {graph.vertex_names[j]}) "
            f"oracle={'present' if in_oracle else 'absent'} "
            f"{variant}={'absent' if in_oracle else 'present'}\n"
        )
        return EXIT_DIVERGENCE
    out.write(f"check ok: {len(reference)} triples, variants: {', '.join(variants)}\n")
    return EXIT_OK


def _cmd_check(args, files: ExitStack) -> int:
    g, _ = _load_grammar(args)
    graph, _ = _load_graph(args, g)
    if graph.vertex_count > args.oracle_limit:
        raise CliInputError(
            f"instance has {graph.vertex_count} vertices, above the oracle guard "
            f"of {args.oracle_limit}; raise --oracle-limit to force"
        )
    return run_check(graph, g, _variants(args))


def _cmd_bench(args, files: ExitStack) -> int:
    g, grammar_id = _load_grammar(args)
    graph, graph_id = _load_graph(args, g)
    rep = _open(args.report, sys.stdout, files)
    records = []
    timed_out = False
    for variant in _variants(args):
        flags = VariantFlags.named(variant)
        walls: list[float] = []
        status = "ok"
        for _ in range(args.reps):
            # an earlier rep's or variant's result would live through this
            # solve, in its memory figure; the last rep's is kept for the report
            result = None
            deadline = time.monotonic() + args.timeout_secs
            t0 = time.perf_counter()
            try:
                result = solve(graph, g, flags, deadline=deadline)
            except SolveTimeout:
                status = "oot"
                timed_out = True
                break
            walls.append(time.perf_counter() - t0)
        if status == "oot":
            records.append(
                f"variant={variant}\ngrammar={grammar_id}\ngraph={graph_id}\n"
                f"status=oot\ntimeout_secs={args.timeout_secs}\n"
            )
            continue
        # read before the report counts the pairs
        peak = _peak_memory_bytes()
        mean = statistics.fmean(walls)
        std = f"{statistics.stdev(walls):.6f}" if len(walls) > 1 else "n/a"
        extra = [
            f"status=ok",
            f"reps={len(walls)}",
            f"mean_seconds={mean:.6f}",
            f"std_seconds={std}",
        ]
        records.append(
            _report_record(variant, grammar_id, graph_id, result, mean, peak, extra)
        )
    _write(rep, "\n".join(records))
    return EXIT_TIMEOUT if timed_out else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p: argparse.ArgumentParser, with_variant: bool) -> None:
    p.add_argument("--graph", required=True, help="triple file, or chain(N) / grid(N)")
    p.add_argument("--grammar", help="grammar file")
    p.add_argument("--preset", help="built-in grammar name")
    if with_variant:
        # ma12345 is ma1234 on a preset's hand-tuned grammar
        p.add_argument("--variant", default="ma1234", choices=(*VARIANT_NAMES, "ma12345"))
    p.add_argument("--index-separator", default="_")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cflr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance and print result pairs")
    _add_common(ps, with_variant=True)
    ps.add_argument("--nonterminal", help="symbol to print pairs for (default: start)")
    ps.add_argument("--output", help="pairs file ('-' or omit for stdout)")
    ps.add_argument("--report", help="run report file ('-' for stdout; default stderr)")
    ps.add_argument("--timeout-secs", type=float, default=None)
    ps.set_defaults(fn=_cmd_solve)

    pc = sub.add_parser("check", help="compare variants against the brute-force oracle")
    _add_common(pc, with_variant=False)
    pc.add_argument("--variants", default="ma,ma1,ma14,ma1234")
    pc.add_argument(
        "--oracle-limit",
        type=int,
        default=500,
        help="refuse instances with more vertices than this (default 500)",
    )
    pc.set_defaults(fn=_cmd_check, variant=None)

    pb = sub.add_parser("bench", help="time variants over repeated runs")
    _add_common(pb, with_variant=False)
    pb.add_argument("--variants", default="ma,ma1,ma14,ma1234")
    pb.add_argument("--reps", type=int, default=5)
    pb.add_argument("--timeout-secs", type=float, default=600.0)
    pb.add_argument("--report", help="report stream file (default stdout)")
    pb.set_defaults(fn=_cmd_bench, variant=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _bad_usage(args)
    if problem is not None:
        print(f"cflr: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with ExitStack() as files:
            return args.fn(args, files)
    except (CliInputError, GrammarError, GraphFormatError) as exc:
        print(f"cflr: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolveTimeout:
        print("cflr: timed out", file=sys.stderr)
        return EXIT_TIMEOUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
