"""The engine's three entry points (``load_graph``, ``oracle_solve`` and
``solve``) and the result readers (``NontermMatrix.to_triples`` and
``pairs``) run with the cyclic garbage collector paused.  That rests on
the engine making no reference cycle, which the first test pins: a cycle
made during a paused run would pile up unseen until the collector runs
again.  The other tests check that every exit gives the caller back the
collector's state it had."""

import gc
import random
import time

import pytest

from cflr.grammar import PRESET_NAMES, ensure_wcnf, preset
from cflr.graph import GraphFormatError, load_graph
from cflr.oracle import oracle_solve
from cflr.semiring import PLAIN, NontermMatrix
from cflr.solver import VARIANT_NAMES, SolveTimeout, VariantFlags, solve

from _support import sized_graph_text


class _Stop(Exception):
    """Raised by a test's iteration hook to leave a solve."""


def _stop(iteration, *_):
    if iteration == 2:
        raise _Stop


def _past() -> float:
    return time.monotonic() - 1.0


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The caller's collector state for one test, restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def dyck():
    g = ensure_wcnf(preset("dyck"))
    return g, load_graph("0 a 1\n1 a 2\n2 b 3\n3 b 4\n", g)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_engine_makes_no_reference_cycle(name):
    """After each entry point returns or leaves early and its result is
    dropped, ``gc.collect()`` finds nothing unreachable: reference counting
    alone freed all the run made."""
    g = ensure_wcnf(preset(name))
    text = sized_graph_text(g, random.Random(90 + PRESET_NAMES.index(name)), 60, 150, 3)
    graph = load_graph(text, g)
    runs = [
        ("load_graph", lambda: load_graph(text, g)),
        ("oracle_solve", lambda: oracle_solve(graph, g)),
    ]
    for v in VARIANT_NAMES:
        flags = VariantFlags.named(v)
        runs += [
            (f"{v} returns", lambda f=flags: solve(graph, g, f)),
            (f"{v} times out", lambda f=flags: solve(graph, g, f, deadline=_past())),
            (f"{v} hook raises", lambda f=flags: solve(graph, g, f, iteration_hook=_stop)),
        ]
        m = solve(graph, g, flags).matrices
        members = {sym for sym, _, _ in m.to_triples()}
        runs += [
            (f"{v} to_triples", m.to_triples),
            (f"{v} pairs", lambda m=m, ss=members: [m.pairs(s) for s in ss]),
        ]
    for label, run in runs:
        gc.collect()
        try:
            run()
        except (SolveTimeout, _Stop):
            pass
        assert gc.collect() == 0, f"{name}: {label} left a reference cycle"


def _exits(g, graph):
    """(label, call, exception it raises or None) for every exit path of
    every entry point and result reader."""
    ma1 = VariantFlags.named("ma1")
    result = solve(graph, g, ma1).matrices

    def interrupt(*_):
        raise KeyboardInterrupt

    return [
        ("load_graph returns", lambda: load_graph("0 a 1\n", g), None),
        ("load_graph raises", lambda: load_graph("0 a\n", g), GraphFormatError),
        ("oracle_solve returns", lambda: oracle_solve(graph, g), None),
        ("oracle_solve raises", lambda: oracle_solve(None, g), AttributeError),
        ("solve returns", lambda: solve(graph, g, ma1), None),
        ("solve times out", lambda: solve(graph, g, ma1, deadline=_past()), SolveTimeout),
        ("solve hook raises", lambda: solve(graph, g, ma1, iteration_hook=_stop), _Stop),
        ("solve interrupted", lambda: solve(graph, g, ma1, iteration_hook=interrupt),
         KeyboardInterrupt),
        ("to_triples returns", result.to_triples, None),
        ("pairs returns", lambda: result.pairs(g.start), None),
        ("to_triples raises", NontermMatrix(1, (), {(g.start, PLAIN): None}).to_triples,
         AttributeError),
    ]


def test_every_exit_restores_the_collector(collector, dyck):
    for label, call, raises in _exits(*dyck):
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert gc.isenabled() is collector, label


def test_the_hook_runs_with_the_collector_paused(collector, dyck):
    g, graph = dyck
    seen = []
    hook = lambda *_: seen.append(gc.isenabled())  # noqa: E731
    solve(graph, g, VariantFlags.named("ma1234"), iteration_hook=hook)
    assert seen and not any(seen)
    assert gc.isenabled() is collector


def test_a_nested_solve_leaves_the_outer_pause(collector, dyck):
    g, graph = dyck
    seen = []

    def hook(*_):
        solve(graph, g, VariantFlags.named("ma1"))
        seen.append(gc.isenabled())

    solve(graph, g, VariantFlags.named("ma"), iteration_hook=hook)
    assert seen and not any(seen)
    assert gc.isenabled() is collector


def test_the_callers_state_returns_even_if_the_hook_changes_it(collector, dyck):
    g, graph = dyck
    flip = gc.disable if collector else gc.enable
    solve(graph, g, VariantFlags.named("ma1"), iteration_hook=lambda *_: flip())
    assert gc.isenabled() is collector


def test_the_readers_run_with_the_collector_paused(collector, dyck, monkeypatch):
    g, graph = dyck
    m = solve(graph, g, VariantFlags.named("ma1")).matrices
    seen = []
    for name in ("member", "_members"):
        read = getattr(NontermMatrix, name)
        logged = lambda *args, read=read: seen.append(gc.isenabled()) or read(*args)  # noqa: E731
        monkeypatch.setattr(NontermMatrix, name, logged)
    assert m.to_triples() and m.pairs(g.start)
    assert seen == [False, False]
    assert gc.isenabled() is collector
