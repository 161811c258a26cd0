"""Edge-labeled directed graphs loaded from whitespace-separated triple
files, with vertex interning and discovery of the concrete index values
carried by indexed edge labels (e.g. ``load_f12`` -> base ``load``,
index ``f12``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .grammar import Cfg, Symbol, TERMINAL


class GraphFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class LabeledGraph:
    vertex_count: int
    vertex_names: tuple[str, ...]
    edges: tuple[tuple[int, Symbol, int], ...]
    index_universe: tuple[str, ...]
    # each label's (source, target) pairs in edge order, labels in order of
    # first appearance; derived from ``edges``, so the two always agree
    label_index: dict[Symbol, tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        by_label: dict[Symbol, list[tuple[int, int]]] = {}
        for u, sym, v in self.edges:
            by_label.setdefault(sym, []).append((u, v))
        index = {k: tuple(v) for k, v in by_label.items()}
        object.__setattr__(self, "label_index", index)


def _assemble(
    names: list[str], edges: list[tuple[int, Symbol, int]], universe: list[str]
) -> LabeledGraph:
    return LabeledGraph(len(names), tuple(names), tuple(edges), tuple(universe))


def load_graph(source: str | Iterable[str], g: Cfg, index_separator: str = "_") -> LabeledGraph:
    """Load a graph from ``u label v`` triples.

    Vertices are interned to dense ids in first-appearance order.  A label
    whose prefix matches an indexed terminal base of ``g`` is split into
    base and index at the first separator after the base (longest base
    wins); the index joins the graph's index universe in discovery order.
    Exact duplicate triples are dropped.  ``#`` starts a comment line.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)

    indexed_bases: list[str] = []
    if g.index_variable is not None:
        indexed_bases = sorted(
            {s.base for s in g.terminals if s.kind == TERMINAL and s.index == g.index_variable},
            key=len,
            reverse=True,
        )

    ids: dict[str, int] = {}
    names: list[str] = []

    def intern(tok: str) -> int:
        vid = ids.get(tok)
        if vid is None:
            vid = len(names)
            ids[tok] = vid
            names.append(tok)
        return vid

    def resolve_label(label: str, lineno: int) -> Symbol:
        for base in indexed_bases:
            if label == base:
                raise GraphFormatError(
                    f"label {label!r} is indexed in the grammar but carries no index",
                    lineno,
                )
            head = base + index_separator
            if label.startswith(head):
                tag = label[len(head) :]
                if not tag:
                    raise GraphFormatError(
                        f"label {label!r} has an empty index part", lineno
                    )
                return Symbol(TERMINAL, base, tag)
        return Symbol(TERMINAL, label, None)

    labels: dict[str, Symbol] = {}  # one symbol per distinct label
    edges: list[tuple[int, Symbol, int]] = []
    seen: set[tuple[int, Symbol, int]] = set()
    universe: list[str] = []
    known_tags: set[str] = set()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"expected 'source label target', got {len(parts)} tokens", lineno
            )
        u_tok, label, v_tok = parts
        sym = labels.get(label) or labels.setdefault(label, resolve_label(label, lineno))
        u, v = intern(u_tok), intern(v_tok)
        triple = (u, sym, v)
        if triple in seen:
            continue
        seen.add(triple)
        edges.append(triple)
        if sym.index is not None and sym.index not in known_tags:
            known_tags.add(sym.index)
            universe.append(sym.index)

    return _assemble(names, edges, universe)


def serialize_graph(graph: LabeledGraph, index_separator: str = "_") -> str:
    """Triple text with interned integer vertex ids; reloadable."""
    lines = []
    for u, sym, v in graph.edges:
        label = sym.base if sym.index is None else f"{sym.base}{index_separator}{sym.index}"
        lines.append(f"{u} {label} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# synthetic instances for benchmarks and tests


def chain_graph(n: int) -> LabeledGraph:
    """A path of n/2 ``a`` edges followed by n/2 ``b`` edges.

    With the bracket grammar this forces one new matching pair per solver
    iteration, i.e. the deepest possible derivations for its size.
    """
    if n < 2 or n % 2:
        raise ValueError("chain size must be an even integer >= 2")
    names = [str(i) for i in range(n + 1)]
    a, b = Symbol(TERMINAL, "a", None), Symbol(TERMINAL, "b", None)
    edges = [(i, a if i < n // 2 else b, i + 1) for i in range(n)]
    return _assemble(names, edges, [])


def grid_graph(n: int) -> LabeledGraph:
    """An n x n grid: ``a`` edges point right, ``b`` edges point down."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    names = [str(i) for i in range(n * n)]
    a, b = Symbol(TERMINAL, "a", None), Symbol(TERMINAL, "b", None)
    edges = []
    for r in range(n):
        for c in range(n):
            at = r * n + c
            if c + 1 < n:
                edges.append((at, a, at + 1))
            if r + 1 < n:
                edges.append((at, b, at + n))
    return _assemble(names, edges, [])
