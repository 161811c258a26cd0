"""Span tracing from outside the program.

:class:`Tracer` replaces public functions on the engine's modules with
wrappers that record one span per call (name, start, end, parent span,
workload, variant) and, for sparse kernels, the entries read and the
entries produced.  Spans live in flat arrays, about 50 bytes each, because
one traced ``dyck-deep`` solve makes some 740k calls; they are written to a
file once, at exit.  The originals are put back when tracing ends, so
untraced solves in the same process run the unmodified code.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import cflr.graph
import cflr.grammar
import cflr.oracle
import cflr.solver
import cflr.sparse


# entries a kernel reads: both operands of a product or union, the
# candidates (left operand) of a difference, the single input otherwise;
# a kernel added later that takes no matrix first records 0
def _both(args) -> int:
    return args[0].nnz + args[1].nnz


def _first(args) -> int:
    return getattr(args[0], "nnz", 0) if args else 0


_SIZE_IN = {"spgemm": _both, "union": _both}


def targets() -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, entries-read function or None) for
    every wrapped call site.  The solver's own imports are wrapped where
    the solver looks them up, so its calls are the ones recorded."""
    out = []
    for attr, fn in vars(cflr.sparse).items():
        if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == "cflr.sparse":
            out.append((cflr.sparse, attr, f"sparse.{attr}", _SIZE_IN.get(attr, _first)))
    out += [
        (cflr.solver, "solve", "solver.solve", None),
        (cflr.solver, "initial_matrix", "semiring.initial_matrix", None),
        (cflr.solver, "build_rule_plan", "semiring.build_rule_plan", None),
        (cflr.solver, "expand_indexed", "grammar.expand_indexed", None),
        (cflr.grammar, "ensure_wcnf", "grammar.ensure_wcnf", None),
        (cflr.graph, "load_graph", "graph.load_graph", None),
        (cflr.oracle, "oracle_solve", "oracle.oracle_solve", None),
    ]
    # a name the engine no longer has is skipped; its metrics then read 0
    return [t for t in out if hasattr(t[0], t[1])]


COLUMNS = (
    ("name", "I"),
    ("context", "I"),
    ("parent", "q"),
    ("start", "d"),
    ("end", "d"),
    ("entries_in", "q"),
    ("entries_out", "q"),
)


class Tracer:
    def __init__(self):
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.names: list[str] = []
        self.contexts: list[tuple[str, str]] = []
        self._context = 0
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.cols["start"])

    def set_context(self, workload: str, variant: str) -> None:
        """Tag the spans that follow with a workload and a variant."""
        key = (workload, variant)
        if key not in self.contexts:
            self.contexts.append(key)
        self._context = self.contexts.index(key)

    def _wrap(self, fn, name: str, size_in):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        c = self.cols
        names, contexts, parents = c["name"], c["context"], c["parent"]
        starts, ends, ins, outs = c["start"], c["end"], c["entries_in"], c["entries_out"]
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            contexts.append(self._context)
            parents.append(stack[-1])
            ins.append(size_in(args) if size_in else 0)
            outs.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if size_in:
                outs[sid] = getattr(out, "nnz", 0)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, size_in in targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, size_in))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """One JSON header line, then each column's raw array bytes."""
        header = {
            "format": "perfbench-spans/1",
            "count": len(self),
            "byteorder": sys.byteorder,
            "columns": [list(c) for c in COLUMNS],
            "names": self.names,
            "contexts": [list(c) for c in self.contexts],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in COLUMNS:
                self.cols[col].tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Header and columns of a file written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in header["columns"]:
            cols[col] = array(code)
            cols[col].fromfile(fh, header["count"])
    if header["byteorder"] != sys.byteorder:
        for a in cols.values():
            a.byteswap()
    return header, cols


def summarize(names: list[str], contexts: list, cols: dict[str, array]) -> dict:
    """Per (workload, variant, span name): calls, total seconds, self
    seconds (the span minus the time its child spans cover) and entries
    read and produced."""
    parents, starts, ends = cols["parent"], cols["start"], cols["end"]
    n = len(starts)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[tuple, list] = {}
    for i in range(n):
        key = (*contexts[cols["context"][i]], names[cols["name"][i]])
        row = out.get(key)
        if row is None:
            row = out[key] = [0, 0.0, 0.0, 0, 0]
        dur = ends[i] - starts[i]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
        row[3] += cols["entries_in"][i]
        row[4] += cols["entries_out"][i]
    keys = ("calls", "s", "self_s", "entries_in", "entries_out")
    return {k: dict(zip(keys, v)) for k, v in out.items()}
