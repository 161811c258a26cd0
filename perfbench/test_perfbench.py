"""Self-tests of the benchmark: seeded inputs, the correctness gate and the
span trace.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import json
import signal
from pathlib import Path

import bench
import spans
import workloads
from cflr.oracle import oracle_solve
from cflr.grammar import Symbol, NONTERMINAL


def small_instance(seed: int = 3):
    grammar_text = workloads.inputs("valueflow-sparse", seed)[0]
    text = workloads.rewrite(workloads.random_text(grammar_text, 40, 80, 3, 7), seed)
    return bench.setup(grammar_text, text)


def benchmark_json() -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_these_workloads():
    doc = benchmark_json()
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    for name in workloads.WORKLOADS:
        assert workloads.inputs(name, 5) == workloads.inputs(name, 5)
        assert workloads.inputs(name, 5)[1] != workloads.inputs(name, 6)[1]
    text = workloads.inputs("valueflow-sparse", 1)[0]
    assert workloads.random_text(text, 50, 90, 4, 2) == workloads.random_text(text, 50, 90, 4, 2)
    assert workloads.random_text(text, 50, 90, 4, 2) != workloads.random_text(text, 50, 90, 4, 3)
    assert workloads.chain_text(8, 1) != workloads.chain_text(8, 2)


def test_rewrite_keeps_the_graph():
    text = workloads.random_text(workloads.inputs("alias-dense", 1)[0], 30, 60, 3, 4)
    a, b = (sorted(workloads.rewrite(text, s).splitlines()) for s in (1, 2))
    assert len(a) == len(b) == 60
    assert sorted(line.split()[1] for line in a) == sorted(line.split()[1] for line in b)


def test_workload_shapes():
    grammar_text, text = workloads.inputs("dyck-deep", 4)
    g, graph = bench.setup(grammar_text, text)
    assert (graph.vertex_count, len(graph.edges)) == (769, 768)
    labels = [line.split()[1] for line in text.splitlines()]
    assert labels.count("a") == labels.count("b") == 384


def test_gate_accepts_every_variant_and_repeats_work():
    g, graph = small_instance()
    gate = bench.Gate(oracle_solve(graph, g))
    for v in bench.VARIANTS * 2:
        assert gate.solve(graph, g, v) is not None, gate.failures
    assert gate.attempted == 8 and not gate.failures
    assert bench.peak_mib(gate, graph, g, "ma1234") > 0


def test_speed_probe_samples_a_solve_and_restores_the_timer():
    g, graph = small_instance()
    gate = bench.Gate(oracle_solve(graph, g))
    previous = signal.getsignal(signal.SIGALRM)
    probe = gate.probe = bench.SpeedProbe(interval_s=0.002)
    seconds = gate.solve(graph, g, "ma")
    assert seconds is not None and not gate.failures
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.in_references(seconds) > 0
    probe.durations, probe.spent = [], 0.0  # a solve shorter than one tick still gets a reading
    assert probe.in_references(0.01) > 0 and len(probe.durations) == 1


def test_corrupted_triples_trip_the_gate():
    g, graph = small_instance()
    expected = set(oracle_solve(graph, g))
    expected.pop()
    expected.add((Symbol(NONTERMINAL, "A", None), 0, graph.vertex_count + 1))
    gate = bench.Gate(frozenset(expected))
    assert gate.solve(graph, g, "ma1") is None
    assert gate.attempted == 1 and "1 extra and 1 missing" in gate.failures[0]


def test_deadline_overrun_trips_the_gate():
    g, graph = small_instance()
    gate = bench.Gate(oracle_solve(graph, g), deadline_s=-1.0)
    assert gate.solve(graph, g, "ma") is None
    assert "deadline" in gate.failures[0]


def test_changed_work_trips_the_gate():
    g, graph = small_instance()
    gate = bench.Gate(oracle_solve(graph, g))
    gate.solve(graph, g, "ma1")
    counters, iterations = gate.work["ma1"]
    gate.work["ma1"] = (counters, iterations + 1)
    assert gate.solve(graph, g, "ma1") is None
    assert "differs" in gate.failures[0]


def test_trace_self_times_counts_and_file(tmp_path):
    g, graph = small_instance()
    gate = bench.Gate(oracle_solve(graph, g))
    untraced = {v: gate.solve(graph, g, v) for v in bench.VARIANTS}
    tracer = spans.Tracer()
    with tracer.installed():
        for v in bench.TRACED_VARIANTS:
            tracer.set_context("w", v)
            assert gate.solve(graph, g, v) is not None
    assert not gate.failures  # traced work equals untraced work
    assert bench.cflr.solver.solve.__name__ == "solve"  # originals restored

    tracer.write(tmp_path / "s.bin")
    header, cols = spans.read_spans(tmp_path / "s.bin")
    assert header["count"] == len(tracer) and cols == tracer.cols
    table = spans.summarize(header["names"], header["contexts"], cols)
    solve = table[("w", "ma1234", "solver.solve")]
    children = sum(r["s"] for (_, v, name), r in table.items() if v == "ma1234" and name != "solver.solve")
    assert solve["calls"] == 1
    assert abs(solve["self_s"] - (solve["s"] - children)) < 1e-6
    prod = table[("w", "ma1234", "sparse.spgemm")]
    assert prod["calls"] == gate.counters("ma1234")["spgemm_calls"]
    union = table[("w", "ma1234", "sparse.union")]
    assert union["entries_in"] >= gate.counters("ma1234")["union_entries"]

    m = bench.layer_metrics("w", tracer, gate, untraced)
    assert {name: unit for name, (_, unit) in m.items()} == {
        p["name"]: p["unit"] for p in benchmark_json()["per_layer"]
    }
    assert m["sparse.spgemm.calls.ma1234"][0] == prod["calls"]
    assert m["trace.overhead.ma1234"][0] > 0
