"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
output.  The random instance streams are seeded, so every run exercises
the same 200-instance matrix.
"""

import random

import pytest

from cflr.cli import EXIT_OK, main
from cflr.grammar import ensure_wcnf, expand_indexed, preset, to_wcnf
from cflr.graph import chain_graph, load_graph
from cflr.oracle import oracle_solve
from cflr.solver import MatrixForest, VariantFlags, forest_insert, solve
from cflr.sparse import BoolMat, union
from _support import random_boolmat, random_graph_text, semiring_matmul, triple_names

VARIANTS = ("ma", "ma1", "ma14", "ma1234")

# criterion-1 grammar matrix: raw grammars are auto-normalized
GRAMMARS = {
    "fsjpt": to_wcnf(preset("fsjpt")),
    "fsjpt-opt": ensure_wcnf(preset("fsjpt-opt")),
    "fica": to_wcnf(preset("fica")),
    "fica-opt": ensure_wcnf(preset("fica-opt")),
    "fsca-wcnf": ensure_wcnf(preset("fsca-wcnf")),
    "cscvf": to_wcnf(preset("cscvf")),
    "cscvf-wcnf": ensure_wcnf(preset("cscvf-wcnf")),
    "dyck": to_wcnf(preset("dyck")),
}

INSTANCES_PER_GRAMMAR = 25


@pytest.fixture(scope="module")
def instance_streams():
    """25 seeded random instances per grammar: <=30 vertices, <=120 edges,
    <=4 concrete index values."""
    streams = {}
    for name, g in GRAMMARS.items():
        rng = random.Random(f"acceptance-{name}")
        streams[name] = [
            load_graph(
                random_graph_text(g, rng, max_vertices=30, max_edges=120, max_indices=4),
                g,
            )
            for _ in range(INSTANCES_PER_GRAMMAR)
        ]
    return streams


@pytest.fixture(scope="module")
def oracle_results(instance_streams):
    return {
        name: [oracle_solve(graph, GRAMMARS[name]) for graph in graphs]
        for name, graphs in instance_streams.items()
    }


def test_criterion_1_oracle_equivalence(instance_streams, oracle_results):
    """Every variant matches the brute-force oracle exactly on 200 random
    instances across all eight grammars."""
    total = 0
    divergent = 0
    for name, graphs in instance_streams.items():
        g = GRAMMARS[name]
        for graph, want in zip(graphs, oracle_results[name]):
            total += 1
            for variant in VARIANTS:
                got = solve(graph, g, VariantFlags.named(variant)).triples()
                if got != want:
                    divergent += 1
    assert total == 200
    assert divergent == 0
    print(
        f"\n[acceptance] criterion 1 oracle-equivalence: PASS "
        f"({total} instances x {len(VARIANTS)} variants, 0 divergent triples)"
    )


def test_criterion_2_grammar_transform_equivalence(instance_streams, oracle_results):
    """The hand-transformed grammars agree with their raw counterparts on
    the nonterminals that survive the transformation."""
    cases = [
        ("fsjpt", "fsjpt-opt", ("PT", "FT")),
        ("fica", "fica-opt", ("M",)),
        ("fsca", "fsca-wcnf", ("M",)),
        ("cscvf", "cscvf-wcnf", ("A",)),
    ]
    fsca = to_wcnf(preset("fsca"))
    checked = 0
    for raw_name, opt_name, nts in cases:
        raw_g = GRAMMARS.get(raw_name, fsca)
        opt_g = GRAMMARS[opt_name]
        # both grammars share an alphabet, so instances of either stream work
        pool = []
        if raw_name in instance_streams:
            pool += list(zip(instance_streams[raw_name], oracle_results[raw_name], ["raw"] * 99))
        pool += list(zip(instance_streams[opt_name], oracle_results[opt_name], ["opt"] * 99))
        for graph, cached, which in pool:
            raw_triples = (
                cached if which == "raw" else oracle_solve(graph, raw_g)
            )
            opt_triples = (
                cached if which == "opt" else oracle_solve(graph, opt_g)
            )
            a = {t for t in triple_names(raw_triples) if t[0] in nts}
            b = {t for t in triple_names(opt_triples) if t[0] in nts}
            assert a == b, (raw_name, opt_name, sorted(a ^ b)[:5])
            checked += 1
    print(
        f"\n[acceptance] criterion 2 grammar-transform-equivalence: PASS "
        f"({checked} instance comparisons, 100% agreement)"
    )


def test_criterion_3_delta_identity():
    """At every delta iteration, (M_old*D) u (D*M) u (M_old*M_old) equals
    M*M, both sides computed independently."""
    specs = [("dyck", 20), ("fica-opt", 15), ("cscvf-wcnf", 15)]
    rng = random.Random("delta-identity")
    instances = 0
    iterations = 0
    for name, count in specs:
        base = ensure_wcnf(preset(name))
        for _ in range(count):
            graph = load_graph(
                random_graph_text(base, rng, max_vertices=12, max_edges=36, max_indices=3),
                base,
            )
            g = expand_indexed(base, graph.index_universe)

            def hook(it, m_old, delta, m):
                nonlocal iterations
                iterations += 1
                lhs = (
                    semiring_matmul(m_old, delta, g)
                    .union(semiring_matmul(delta, m, g))
                    .union(semiring_matmul(m_old, m_old, g))
                )
                rhs = semiring_matmul(m, m, g)
                assert lhs.logical_eq(rhs), (name, it)

            solve(graph, g, VariantFlags.named("ma1"), iteration_hook=hook)
            instances += 1
    assert instances == 50
    print(
        f"\n[acceptance] criterion 3 delta-identity: PASS "
        f"({instances} instances, exact equality at all {iterations} iterations)"
    )


def _log_piece_bound(nnz: int, b: int) -> int:
    """1 + floor(log_b(nnz)) in exact integer arithmetic (0 for nnz = 0)."""
    bound = 0
    while nnz >= b**bound:
        bound += 1
    return bound


def _check_forest_sequence(forest: MatrixForest, deltas) -> int:
    """Insert each delta, checking after every insert that the pieces are
    strictly size-separated, that there are at most 1 + log_b(nnz) of them,
    and that their union equals a plain accumulator.  Returns the number of
    inserts."""
    acc = None
    for d in deltas:
        forest_insert(forest, d)
        acc = d if acc is None else union(acc, d)
        assert forest.invariant_holds(), forest.sizes()
        assert len(forest) <= _log_piece_bound(acc.nnz, forest.b), forest.sizes()
        got = BoolMat.empty(d.rows, d.cols)
        for el in forest.payloads():
            got = union(got, el)
        assert got == acc
    return len(deltas)


@pytest.mark.parametrize("b", [2, 10])
def test_criterion_4_forest_invariant(b):
    """After every insert the pieces are strictly size-separated, number at
    most 1 + log_b(nnz), and their union equals a plain accumulator; this
    holds for random deltas and for long runs of equal-sized deltas."""
    rng = random.Random(f"forest-{b}")
    sequences = 500
    inserts = 0
    for _ in range(sequences):
        n = rng.randrange(4, 16)
        deltas = [
            random_boolmat(rng, n, n, rng.random() * 0.5)
            for _ in range(rng.randrange(1, 14))
        ]
        inserts += _check_forest_sequence(MatrixForest(b=b), deltas)
    # equal-sized deltas: 200 distinct one-entry inserts, then runs of
    # same-sized disjoint blocks, each of which must merge by size class
    n = 20
    cells = [(i, j) for i in range(n) for j in range(n)]
    rng.shuffle(cells)
    singles = [BoolMat.from_entries(n, n, [c]) for c in cells[:200]]
    inserts += _check_forest_sequence(MatrixForest(b=b), singles)
    sequences += 1
    for width in (3, 7):
        blocks = [
            BoolMat.from_entries(n, n, cells[i : i + width])
            for i in range(0, len(cells) - width + 1, width)
        ]
        inserts += _check_forest_sequence(MatrixForest(b=b), blocks)
        sequences += 1
    print(
        f"\n[acceptance] criterion 4 forest-invariant (b={b}): PASS "
        f"({sequences} sequences, {inserts} inserts, 0 violations)"
    )


def test_criterion_5_block_path_equivalence(instance_streams):
    """Block execution of indexed families (ma14) returns exactly the
    per-index expansion's results (ma1) on every indexed instance."""
    checked = 0
    for name in ("fsjpt-opt", "fsca-wcnf", "cscvf-wcnf"):
        g = GRAMMARS[name]
        for graph in instance_streams[name]:
            a = solve(graph, g, VariantFlags.named("ma1")).triples()
            b = solve(graph, g, VariantFlags.named("ma14")).triples()
            assert a == b, name
            checked += 1
    print(
        f"\n[acceptance] criterion 5 block-path-equivalence: PASS "
        f"({checked} indexed instances, 100% agreement)"
    )


def test_criterion_6_performance_trend():
    """Delta iteration does asymptotically less semiring work than the
    baseline on deep-derivation chains: the scalar-op ratio grows with n
    and clears 5x at n=1024."""
    g = GRAMMARS["dyck"]
    ratios = []
    for n in (64, 128, 256, 512, 1024):
        graph = chain_graph(n)
        ma = solve(graph, g, VariantFlags.named("ma")).counters.scalar_ops
        ma1 = solve(graph, g, VariantFlags.named("ma1")).counters.scalar_ops
        ratios.append(ma / ma1)
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] > 5, ratios
    pretty = ", ".join(f"{r:.1f}" for r in ratios)
    print(
        f"\n[acceptance] criterion 6 performance-trend: PASS "
        f"(ratios over n=64..1024: {pretty}; strictly increasing, {ratios[-1]:.0f}x at n=1024)"
    )


def test_criterion_7_indexed_family_multiplication_count():
    """With block execution the per-iteration multiplication count does not
    depend on the number of concrete indices; with expansion it grows
    linearly (two products per binary rule per iteration: one against the
    old snapshot, one against the update)."""
    g = GRAMMARS["cscvf-wcnf"]
    families = len(g.binary_rules)
    assert families == 4
    per_iter_on = []
    per_iter_off = []
    for k in (2, 3, 4):
        lines = []
        for t in range(k):
            lines += [
                f"{3 * t} call_f{t} {3 * t + 1}",
                f"{3 * t + 1} a {3 * t + 2}",
                f"{3 * t + 2} ret_f{t} {3 * t + 3}",
            ]
        graph = load_graph("\n".join(lines), g)
        r_on = solve(graph, g, VariantFlags.named("ma14"))
        r_off = solve(graph, g, VariantFlags.named("ma1"))
        assert r_on.counters.spgemm_calls % r_on.iterations == 0
        assert r_off.counters.spgemm_calls % r_off.iterations == 0
        per_iter_on.append(r_on.counters.spgemm_calls // r_on.iterations)
        per_iter_off.append(r_off.counters.spgemm_calls // r_off.iterations)
    assert per_iter_on == [2 * families] * 3, per_iter_on
    expected_off = [2 * (2 + 2 * k) for k in (2, 3, 4)]
    assert per_iter_off == expected_off, per_iter_off
    assert per_iter_off[0] < per_iter_off[1] < per_iter_off[2]
    print(
        f"\n[acceptance] criterion 7 indexed-family-multiplications: PASS "
        f"(blocks on: {per_iter_on[0]}/iteration for every k; "
        f"blocks off: {per_iter_off}/iteration for k=2,3,4)"
    )


def test_criterion_8_determinism(tmp_path, instance_streams):
    """Repeated runs give byte-identical pair files and identical
    counters."""
    # library level: same counters and triples across repeated runs
    matrix = [
        ("dyck", instance_streams["dyck"][0]),
        ("cscvf-wcnf", instance_streams["cscvf-wcnf"][0]),
        ("fsjpt-opt", instance_streams["fsjpt-opt"][0]),
        ("fica-opt", instance_streams["fica-opt"][0]),
    ]
    for name, graph in matrix:
        g = GRAMMARS[name]
        for variant in VARIANTS:
            runs = [solve(graph, g, VariantFlags.named(variant)) for _ in range(2)]
            assert runs[0].triples() == runs[1].triples()
            assert runs[0].counters == runs[1].counters
            assert runs[0].iterations == runs[1].iterations

    # CLI level: byte-identical pair files, identical counter report lines
    graph_file = tmp_path / "graph.txt"
    g = GRAMMARS["cscvf-wcnf"]
    from cflr.graph import serialize_graph

    graph_file.write_text(serialize_graph(instance_streams["cscvf-wcnf"][1]))
    stable_keys = ("spgemm_calls", "scalar_ops", "union_entries", "iterations", "pairs_total")
    for variant in VARIANTS:
        pair_bytes = []
        counters = []
        for run in ("a", "b"):
            out = tmp_path / f"{variant}-{run}.pairs"
            rep = tmp_path / f"{variant}-{run}.report"
            rc = main(
                [
                    "solve",
                    "--graph", str(graph_file),
                    "--preset", "cscvf-wcnf",
                    "--variant", variant,
                    "--nonterminal", "A",
                    "--output", str(out),
                    "--report", str(rep),
                ]
            )
            assert rc == EXIT_OK
            pair_bytes.append(out.read_bytes())
            rows = dict(
                line.split("=", 1) for line in rep.read_text().strip().splitlines()
            )
            counters.append({k: rows[k] for k in stable_keys})
        assert pair_bytes[0] == pair_bytes[1]
        assert counters[0] == counters[1]
    print(
        "\n[acceptance] criterion 8 determinism: PASS "
        "(library and CLI runs byte-identical across repeats)"
    )
