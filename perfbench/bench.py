"""Measurement loop: set-up, checked solves per variant, and the traced run.

Every solve goes through :class:`Gate`, which compares its triples with the
worklist oracle, puts a deadline on it and checks that its work counters
and iteration count repeat exactly.  The first failure ends the run with a
nonzero exit status.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import cflr.graph
import cflr.grammar
import cflr.oracle
import cflr.solver
from cflr.solver import SolveTimeout, VariantFlags

import spans
import workloads

VARIANTS = ("ma", "ma1", "ma14", "ma1234")
TRACED_VARIANTS = ("ma1", "ma1234")
PEAK_VARIANT = "ma1234"
SOLVE_DEADLINE_S = 60.0
MIN_ROUNDS = 3
SLICE_S = 1.0
PROBE_INTERVAL_S = 0.02
PROBE_WARMUP_N = 200
PROBE_LOOP_N = 1600
# seconds of one PROBE_LOOP_N-step reference loop at the full speed of the
# 2-vCPU VM in README.md; it turns set-up reference loops into seconds
REFERENCE_LOOP_S = 0.00033
OUT_DIR = Path(__file__).resolve().parent / "out"


class Gate:
    """Runs solves and counts those that fail: wrong triples, an exception,
    a deadline overrun, or work counters that differ from the variant's
    first solve."""

    def __init__(self, expected: frozenset, deadline_s: float = SOLVE_DEADLINE_S):
        self.expected = expected
        self.deadline_s = deadline_s
        self.attempted = 0
        self.failures: list[str] = []
        self.work: dict[str, tuple] = {}
        self.probe = nullcontext()  # entered around each timed solve

    def solve(self, graph, g, variant: str) -> float | None:
        """Seconds taken by one checked solve, or None if it failed."""
        seconds, result = self.run(graph, g, variant)
        return seconds if result is not None and self.check(variant, seconds, result) else None

    def run(self, graph, g, variant: str):
        """(seconds, result) of one solve; result None if it raised."""
        self.attempted += 1
        gc.collect()
        with self.probe:
            t0 = time.perf_counter()
            try:
                result = cflr.solver.solve(
                    graph, g, VariantFlags.named(variant), deadline=time.monotonic() + self.deadline_s
                )
            except SolveTimeout:
                self.failures.append(f"{variant}: overran its {self.deadline_s} s deadline")
                return time.perf_counter() - t0, None
            except Exception as exc:  # a crashing variant is a counted failure
                self.failures.append(f"{variant}: raised {type(exc).__name__}: {exc}")
                return time.perf_counter() - t0, None
            return time.perf_counter() - t0, result

    def check(self, variant: str, seconds: float, result) -> bool:
        """Deadline, exact triples against the oracle, repeatable work."""
        if seconds > self.deadline_s:
            self.failures.append(f"{variant}: took {seconds:.3f} s, deadline {self.deadline_s} s")
            return False
        got = result.triples()
        if got != self.expected:
            self.failures.append(
                f"{variant}: {len(got - self.expected)} extra and "
                f"{len(self.expected - got)} missing triples against the oracle"
            )
            return False
        work = (tuple(result.counters.as_dict().items()), result.iterations)
        first = self.work.setdefault(variant, work)
        if work != first:
            self.failures.append(f"{variant}: work {work} differs from the first solve's {first}")
            return False
        return True

    def counters(self, variant: str) -> dict[str, int]:
        return dict(self.work[variant][0])

    def iterations(self, variant: str) -> int:
        return self.work[variant][1]


def setup(grammar_text: str, graph_text: str):
    g = cflr.grammar.ensure_wcnf(cflr.grammar.parse_grammar(grammar_text))
    return g, cflr.graph.load_graph(graph_text, g)


def timed_setup(grammar_text: str, graph_text: str, probe: SpeedProbe) -> float:
    with probe:
        t0 = time.perf_counter()
        setup(grammar_text, graph_text)
        return time.perf_counter() - t0


def reference_loop(n: int) -> int:
    """A fixed piece of pure-Python work: dict and set updates like the
    solver's inner loops.  It calls nothing in the engine, so its time
    follows the host's speed and not the engine's code."""
    d: dict[int, int] = {}
    s: set[int] = set()
    for i in range(n):
        d[i & 511] = d.get(i & 511, 0) + i
        s.add((i * 7) & 1023)
    return len(d) + len(s)


class SpeedProbe:
    """While entered, a real-time timer interrupts the process every
    ``interval_s`` seconds.  The signal handler runs a short untimed
    reference loop, which brings the loop's code and data back into the
    caches the interrupted solve was using, then times a long one.  So the
    host's speed is sampled all through a solve."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self.durations: list[float] = []
        self.spent = 0.0  # seconds in the handler, warm-up included
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self.durations = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop(PROBE_WARMUP_N)
        t1 = time.perf_counter()
        reference_loop(PROBE_LOOP_N)
        t2 = time.perf_counter()
        self.durations.append(t2 - t1)
        self.spent += t2 - t0

    def in_references(self, seconds: float) -> float:
        """The last probed interval of ``seconds``, less the probe's own
        time, counted in reference loops at the speeds sampled during it:
        net time times the mean loop rate."""
        net = seconds - self.spent
        if not self.durations:  # it ended before the first tick
            self._tick()
        return net * statistics.fmean(1 / d for d in self.durations)


def peak_mib(gate: Gate, graph, g, variant: str) -> float | None:
    """tracemalloc peak of one checked solve, counting only what the solve
    itself allocates (the check runs after tracing stops)."""
    tracemalloc.start()
    try:
        seconds, result = gate.run(graph, g, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if result is None or not gate.check(variant, seconds, result):
        return None
    return peak / 2**20


def measure(workload: str, seed: int, seconds: float, log) -> tuple[Gate, dict]:
    """The untraced run: end-to-end metrics as (value, unit).

    Set-up, the oracle and the peak-memory solve come first and are not
    counted in ``seconds``.  Then rounds repeat for ``seconds``, at least
    MIN_ROUNDS times.  In each round set-up and every variant run for at
    least SLICE_S seconds, so short solves are sampled all across the run
    rather than at a few instants.  After MIN_ROUNDS, a task is not started
    again when its last sample would not fit before the end.

    The host's speed switches between two states about 2x apart, for a
    fraction of a second or for minutes, so solve seconds move with the
    minutes a run happened in.  A :class:`SpeedProbe` therefore samples the
    host's speed all through each solve, and ``solve_ref.V`` is the median
    over V's solves of the solve's time in reference loops.  Set-ups are
    probed the same way, and ``setup_s`` is their median in reference loops
    times REFERENCE_LOOP_S: seconds at the host's full speed."""
    grammar_text, graph_text = workloads.inputs(workload, seed)
    g, graph = setup(grammar_text, graph_text)
    gate = Gate(cflr.oracle.oracle_solve(graph, g))
    gc.freeze()  # the garbage collector no longer walks the oracle's answer during solves
    log(f"instance: V={graph.vertex_count} E={len(graph.edges)} k={len(graph.index_universe)} "
        f"oracle triples={len(gate.expected)}")
    t_peak = time.perf_counter()
    peak = peak_mib(gate, graph, g, PEAK_VARIANT)
    log(f"the peak-memory solve took {time.perf_counter() - t_peak:.2f} s")
    if peak is None:
        return gate, {}
    probe = gate.probe = SpeedProbe()
    tasks = {"setup": lambda: timed_setup(grammar_text, graph_text, probe)}
    tasks |= {v: (lambda v=v: gate.solve(graph, g, v)) for v in VARIANTS}
    order = list(tasks)
    samples: dict[str, list[float]] = {name: [] for name in order}
    refs: dict[str, list[float]] = {name: [] for name in order}
    rounds = 0

    def fits(name: str) -> bool:
        return rounds < MIN_ROUNDS or time.perf_counter() + samples[name][-1] <= end

    start = time.perf_counter()
    end = start + seconds
    while rounds < MIN_ROUNDS or any(fits(name) for name in order):
        for name in order[rounds % len(order):] + order[: rounds % len(order)]:
            spent = 0.0
            while spent < SLICE_S and fits(name):
                s = tasks[name]()
                if s is None:
                    return gate, {}
                samples[name].append(s)
                spent += s
                refs[name].append(probe.in_references(s))
        rounds += 1
    log(f"measured for {time.perf_counter() - start:.2f} s in {rounds} rounds")
    for name, values in samples.items():
        log(f"{name}: {len(values)} samples, min {min(values):.4f} s, median {statistics.median(values):.4f} s, "
            f"max {max(values):.4f} s, median {statistics.median(refs[name]):.1f} ref")
    metrics = {"setup_s": (statistics.median(refs["setup"]) * REFERENCE_LOOP_S, "s")}
    metrics |= {f"solve_ref.{v}": (statistics.median(refs[v]), "ref") for v in VARIANTS}
    metrics[f"peak_mb.{PEAK_VARIANT}"] = (peak, "MiB")
    return gate, metrics


def traced(workload: str, seed: int, log) -> tuple[Gate, dict]:
    """The traced run: per-layer metrics, spans written to OUT_DIR."""
    grammar_text, graph_text = workloads.inputs(workload, seed)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.set_context(workload, "setup")
        g, graph = setup(grammar_text, graph_text)
        tracer.set_context(workload, "oracle")
        gate = Gate(cflr.oracle.oracle_solve(graph, g))
    gc.freeze()
    untraced = {}
    for v in VARIANTS:
        untraced[v] = gate.solve(graph, g, v)
        if untraced[v] is None:
            return gate, {}
    with tracer.installed():
        for v in TRACED_VARIANTS:
            tracer.set_context(workload, v)
            if gate.solve(graph, g, v) is None:
                return gate, {}
    path = OUT_DIR / f"spans-{workload}.bin"
    tracer.write(path)
    log(f"{len(tracer)} spans written to {path}")
    return gate, layer_metrics(workload, tracer, gate, untraced)


def layer_metrics(workload: str, tracer: spans.Tracer, gate: Gate, untraced: dict) -> dict:
    table = spans.summarize(tracer.names, tracer.contexts, tracer.cols)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "entries_in": 0, "entries_out": 0}

    def row(variant, *names):
        out = dict(zero)
        for name in names:
            for key, value in table.get((workload, variant, name), zero).items():
                out[key] += value
        return out

    m = {
        "grammar.ensure_wcnf_s": (row("setup", "grammar.ensure_wcnf")["s"], "s"),
        "graph.load_graph_s": (row("setup", "graph.load_graph")["s"], "s"),
        "grammar.expand_indexed_s.ma1": (row("ma1", "grammar.expand_indexed")["s"], "s"),
        "oracle.solve_s": (row("oracle", "oracle.oracle_solve")["s"], "s"),
        "oracle.triples": (len(gate.expected), "count"),
    }
    remaps = ("block_offset", "block_diagonalize", "block_collapse",
              "horizontal_to_vertical", "vertical_to_horizontal")
    for v in TRACED_VARIANTS:
        union, diff, prod = (row(v, f"sparse.{k}") for k in ("union", "difference", "spgemm"))
        conv, remap = row(v, "sparse.convert"), row(v, *(f"sparse.{k}" for k in remaps))
        solve = row(v, "solver.solve")
        iterations = gate.iterations(v)
        m |= {
            f"sparse.union.calls.{v}": (union["calls"], "count"),
            f"sparse.union.s.{v}": (union["s"], "s"),
            f"sparse.union.entries.{v}": (union["entries_in"], "count"),
            f"sparse.difference.calls.{v}": (diff["calls"], "count"),
            f"sparse.difference.s.{v}": (diff["s"], "s"),
            f"sparse.difference.kept_ratio.{v}": (
                diff["entries_out"] / diff["entries_in"] if diff["entries_in"] else 0.0, "ratio"),
            f"sparse.spgemm.calls.{v}": (prod["calls"], "count"),
            f"sparse.spgemm.s.{v}": (prod["s"], "s"),
            f"sparse.spgemm.out_nnz.{v}": (prod["entries_out"], "count"),
            f"sparse.convert.calls.{v}": (conv["calls"], "count"),
            f"sparse.convert.s.{v}": (conv["s"], "s"),
            f"sparse.remap.calls.{v}": (remap["calls"], "count"),
            f"sparse.remap.s.{v}": (remap["s"], "s"),
            f"solver.self_s.{v}": (solve["self_s"], "s"),
            f"solver.iterations.{v}": (iterations, "count"),
            f"solver.spgemm_per_iter.{v}": (prod["calls"] / iterations if iterations else 0.0, "calls/iter"),
            f"semiring.initial_matrix_s.{v}": (row(v, "semiring.initial_matrix")["s"], "s"),
            f"semiring.build_rule_plan_s.{v}": (row(v, "semiring.build_rule_plan")["s"], "s"),
            f"trace.overhead.{v}": (solve["s"] / untraced[v], "ratio"),
        }
    for v in VARIANTS:
        for key, value in gate.counters(v).items():
            m[f"counter.{key}.{v}"] = (value, "count")
    return m


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    def log(msg: str) -> None:
        print(f"# {msg}", flush=True)

    log(f"workload={workload} seed={seed} trace={int(trace)} "
        f"python={platform.python_implementation()} {platform.python_version()} nproc={os.cpu_count()}")
    if trace:
        gate, metrics = traced(workload, seed, log)
    else:
        gate, metrics = measure(workload, seed, seconds, log)
        metrics["ok_ratio"] = (1 - len(gate.failures) / gate.attempted, "ratio")
    for msg in gate.failures:
        log(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if gate.failures else 0
