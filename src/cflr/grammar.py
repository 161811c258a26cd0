"""Context-free grammars: parsing, WCNF validation, normalization, and the
built-in grammars for the bundled static analyses.

The accepted normal form is weak: every production must look like
``A -> t`` (t a terminal or nothing, i.e. epsilon), ``A -> B`` (unit rule),
or ``C -> X Y`` where X and Y are symbols of which at least one is a
nonterminal.  A terminal operand in a two-symbol body denotes its constant
edge relation, so it never needs a wrapper nonterminal.

A grammar may use one index variable (written ``name_[i]`` in grammar files)
to describe families of symbols such as per-field loads or per-call-site
parentheses; every indexed symbol in one grammar shares that variable, and
concrete index values are discovered from the graph at solve time.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass, field
from functools import wraps
from typing import Iterable, NamedTuple

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"
EPSILON_KIND = "epsilon"

_INDEXED_TOKEN = re.compile(r"^(?P<base>[^\[\]]+)_\[(?P<var>[A-Za-z][A-Za-z0-9]*)\]$")


class GrammarError(ValueError):
    """Raised for a malformed grammar; carries the 1-based line number of
    grammar text, or ``None``."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class WcnfViolationError(GrammarError):
    """Raised when a grammar is not in the accepted weak normal form."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class Symbol(NamedTuple):
    """A grammar symbol.  It is a plain tuple, so it equals, and hashes as,
    the bare ``(kind, base, index)``."""

    kind: str
    base: str
    index: str | None = None

    def name(self) -> str:
        if self.kind == EPSILON_KIND:
            return "eps"
        return self.base if self.index is None else f"{self.base}_{self.index}"

    def __repr__(self) -> str:
        tag = {"terminal": "t", "nonterminal": "n", "epsilon": "e"}[self.kind]
        return f"{self.name()}:{tag}"


EPSILON = Symbol(EPSILON_KIND, "", None)


def nonterminal(base: str, index: str | None = None) -> Symbol:
    return Symbol(NONTERMINAL, base, index)


@dataclass(frozen=True)
class Production:
    lhs: Symbol
    rhs: tuple[Symbol, ...]

    def __repr__(self) -> str:
        body = " ".join(s.name() for s in self.rhs) if self.rhs else "eps"
        return f"{self.lhs.name()} -> {body}"


@dataclass(frozen=True)
class Cfg:
    """A grammar is its productions; ``nonterminals`` and ``terminals`` are
    the symbols of each kind that they name."""

    productions: tuple[Production, ...]
    start: Symbol
    index_variable: str | None = None
    nonterminals: frozenset[Symbol] = field(init=False)
    terminals: frozenset[Symbol] = field(init=False)

    def __post_init__(self):
        named = {p.lhs for p in self.productions}
        named.update(s for p in self.productions for s in p.rhs)
        for attr, kind in (("nonterminals", NONTERMINAL), ("terminals", TERMINAL)):
            object.__setattr__(self, attr, frozenset(s for s in named if s.kind == kind))

    def is_indexed_symbol(self, sym: Symbol) -> bool:
        return self.index_variable is not None and sym.index == self.index_variable

    def indexed_terminal_bases(self) -> frozenset[str]:
        return frozenset(s.base for s in self.terminals if self.is_indexed_symbol(s))


@dataclass(frozen=True)
class WcnfGrammar(Cfg):
    """A grammar in the accepted weak normal form, checked when it is made
    (raising :class:`WcnfViolationError`), with its productions sorted by
    shape in production order.

    ``terminal_rules`` maps each terminal (or the epsilon sentinel) to the
    nonterminals that directly produce it; ``binary_rules`` holds the
    (lhs, left, right) triples; ``unit_rules`` the (lhs, source) pairs.
    """

    terminal_rules: dict[Symbol, tuple[Symbol, ...]] = field(init=False)
    binary_rules: tuple[tuple[Symbol, Symbol, Symbol], ...] = field(init=False)
    unit_rules: tuple[tuple[Symbol, Symbol], ...] = field(init=False)
    is_indexed: bool = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        violations = [v for p in self.productions if (v := _production_violation(p, self))]
        if violations:
            raise WcnfViolationError(violations)

        terminal_rules: dict[Symbol, list[Symbol]] = {}
        binary_rules, unit_rules = [], []
        for p in self.productions:
            if len(p.rhs) == 2:
                binary_rules.append((p.lhs, *p.rhs))
            elif p.rhs and p.rhs[0].kind != TERMINAL:
                unit_rules.append((p.lhs, p.rhs[0]))
            else:
                terminal_rules.setdefault(p.rhs[0] if p.rhs else EPSILON, []).append(p.lhs)

        derived = {
            "terminal_rules": {k: tuple(dict.fromkeys(v)) for k, v in terminal_rules.items()},
            "binary_rules": tuple(binary_rules),
            "unit_rules": tuple(unit_rules),
            "is_indexed": any(map(self.is_indexed_symbol, self.nonterminals | self.terminals)),
        }
        for attr, value in derived.items():
            object.__setattr__(self, attr, value)


# ---------------------------------------------------------------------------
# shared with the graph loader, the oracle and the solver


def collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector paused, and give the
    collector back in the state the caller had on every exit.  None of the
    engine's entry points makes a reference cycle (a test pins this), so
    reference counting frees all they drop, and the collector would only
    walk the lines they allocate, for nothing."""

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            (gc.enable if enabled else gc.disable)()

    return paused


# ---------------------------------------------------------------------------
# parsing


def line_tokens(raw: str) -> list[str]:
    """The whitespace-separated tokens of one line of grammar or graph text.
    A token that starts with ``#`` starts a comment, which runs to the end
    of the line."""
    tokens = raw.split()
    for at, tok in enumerate(tokens):
        if tok.startswith("#"):
            return tokens[:at]
    return tokens


def _split_rule_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = " ".join(line_tokens(raw))
        if line:
            yield lineno, line


def parse_grammar(text: str) -> Cfg:
    """Parse grammar text into a :class:`Cfg`.

    One rule per line, ``LHS -> S1 S2 | T1 T2 ;`` with whitespace-separated
    tokens.  ``eps`` is the empty body, ``X_[i]`` an indexed symbol, ``X?``
    an optional symbol (desugared into alternatives with and without it),
    and a ``start: S`` line names the start symbol (default: first lhs).
    """
    start_name: str | None = None
    start_line: int | None = None
    raw_rules: list[tuple[int, str, list[list[str]]]] = []

    for lineno, line in _split_rule_lines(text):
        if line.startswith("start:"):
            if start_name is not None:
                raise GrammarError(
                    f"second start directive; line {start_line} already names {start_name!r}",
                    lineno,
                )
            start_name = line[len("start:") :].strip()
            start_line = lineno
            if not start_name or len(start_name.split()) != 1:
                raise GrammarError("start directive expects exactly one symbol", lineno)
            continue
        if "->" not in line:
            raise GrammarError("expected 'LHS -> body' or 'start: S'", lineno)
        lhs_part, rhs_part = line.split("->", 1)
        lhs_tokens = lhs_part.split()
        if len(lhs_tokens) != 1:
            raise GrammarError("left-hand side must be a single symbol", lineno)
        rhs_part = rhs_part.strip()
        if rhs_part.endswith(";"):
            rhs_part = rhs_part[:-1].strip()
        alternatives = [alt.split() for alt in rhs_part.split("|")]
        raw_rules.append((lineno, lhs_tokens[0], alternatives))

    if not raw_rules:
        raise GrammarError("grammar has no rules")

    index_vars: dict[str, int] = {}

    def classify_token(tok: str, lineno: int) -> tuple[str, str | None, bool]:
        optional = tok.endswith("?")
        if optional:
            tok = tok[:-1]
            if not tok:
                raise GrammarError("dangling '?'", lineno)
        m = _INDEXED_TOKEN.match(tok)
        if m:
            index_vars.setdefault(m.group("var"), lineno)
            return m.group("base"), m.group("var"), optional
        if "[" in tok or "]" in tok:
            raise GrammarError(f"malformed symbol token {tok!r}", lineno)
        return tok, None, optional

    # first pass: which bases are nonterminals, and index usage per base,
    # in rule order
    lhs_info: dict[str, str | None] = {}
    for lineno, lhs_tok, _ in raw_rules:
        base, var, optional = classify_token(lhs_tok, lineno)
        if optional:
            raise GrammarError("left-hand side cannot be optional", lineno)
        if base == "eps":
            raise GrammarError("'eps' cannot be a left-hand side", lineno)
        if lhs_info.setdefault(base, var) != var:
            raise GrammarError(f"symbol {base!r} used both indexed and unindexed", lineno)

    base_index: dict[str, str | None] = dict(lhs_info)

    def make_symbol(base: str, var: str | None, lineno: int) -> Symbol:
        if base_index.setdefault(base, var) != var:
            raise GrammarError(f"symbol {base!r} used both indexed and unindexed", lineno)
        return Symbol(NONTERMINAL if base in lhs_info else TERMINAL, base, var)

    productions: list[Production] = []

    for lineno, lhs_tok, alternatives in raw_rules:
        lhs_base, lhs_var, _ = classify_token(lhs_tok, lineno)
        lhs_sym = make_symbol(lhs_base, lhs_var, lineno)
        for alt in alternatives:
            if alt == ["eps"]:
                productions.append(Production(lhs_sym, ()))
                continue
            if "eps" in alt:
                raise GrammarError("'eps' must stand alone in an alternative", lineno)
            # expand optional symbols: include-first, then without
            expansions: list[list[Symbol]] = [[]]
            for tok in alt:
                base, var, optional = classify_token(tok, lineno)
                sym = make_symbol(base, var, lineno)
                with_sym = [e + [sym] for e in expansions]
                expansions = with_sym + expansions if optional else with_sym
            productions.extend(Production(lhs_sym, tuple(e)) for e in expansions)

    if len(index_vars) > 1:
        names = ", ".join(sorted(index_vars))
        raise GrammarError(
            f"grammars with multiple index variables are not supported (saw: {names})",
            max(index_vars.values()),
        )

    index_variable = next(iter(index_vars), None)

    if start_name is not None:
        sbase, svar, _ = classify_token(start_name, start_line or 0)
        if sbase not in lhs_info:
            raise GrammarError(f"undeclared start symbol {start_name!r}", start_line)
    else:
        sbase = next(iter(lhs_info))

    return Cfg(tuple(productions), Symbol(NONTERMINAL, sbase, lhs_info[sbase]), index_variable)


def serialize_grammar(g: Cfg) -> str:
    """Render a grammar in the text format, one production per line."""

    def sym_text(s: Symbol) -> str:
        if s.index is not None and s.index == g.index_variable:
            return f"{s.base}_[{s.index}]"
        return s.name()

    lines = [f"start: {sym_text(g.start)}"]
    for p in g.productions:
        body = " ".join(sym_text(s) for s in p.rhs) if p.rhs else "eps"
        lines.append(f"{sym_text(p.lhs)} -> {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# WCNF validation and normalization


def _repairable(p: Production) -> bool:
    """Whether ``to_wcnf`` rewrites ``p``: a body longer than two symbols, or
    a body of two terminals."""
    return len(p.rhs) > 2 or len(p.rhs) == 2 and p.rhs[0].kind == p.rhs[1].kind == TERMINAL


def _breaks_index_rule(p: Production, g: Cfg) -> bool:
    """Whether ``p`` has an indexed left-hand side but no indexed symbol in
    its nonempty body, which no rewrite can mend."""
    return bool(p.rhs) and g.is_indexed_symbol(p.lhs) and not any(map(g.is_indexed_symbol, p.rhs))


def _production_violation(p: Production, g: Cfg) -> str | None:
    if _breaks_index_rule(p, g):
        return f"{p!r}: indexed result requires an indexed operand"
    if len(p.rhs) > 2:
        return f"{p!r}: right-hand side longer than two symbols"
    if _repairable(p):
        return f"{p!r}: binary rule without a nonterminal operand"
    return None


def validate_wcnf(g: Cfg) -> WcnfGrammar:
    """Check ``g``'s production shapes and build the categorized grammar.

    Raises :class:`WcnfViolationError` with one entry per offending
    production if the grammar is not in the accepted normal form.
    """
    return WcnfGrammar(g.productions, g.start, g.index_variable)


def to_wcnf(g: Cfg) -> WcnfGrammar:
    """Rewrite ``g`` into the accepted weak normal form.

    Only a body longer than two symbols or a body of two terminals is
    rewritten, and only when the production keeps the index rule; every
    other production passes through unchanged, so one that breaks the
    index rule is reported as written.  A rewritten
    production first has its terminals lifted into fresh unit nonterminals
    (``<base>#t``), then its body is binarized left to right with fresh
    helpers named ``<lhs>#k``.  A helper spanning a split is
    index-parameterized exactly when the index variable occurs on both
    sides of the split (or on the left-hand side), so index ties such as
    matched per-field brackets survive binarization.
    """
    new_prods: list[Production] = []
    lifted: dict[Symbol, Symbol] = {}
    helper_counts: dict[str, int] = {}

    def lift(t: Symbol) -> Symbol:
        nt = lifted.get(t)
        if nt is None:
            nt = lifted[t] = Symbol(NONTERMINAL, f"{t.base}#t", t.index)
            new_prods.append(Production(nt, (t,)))
        return nt

    for p in g.productions:
        if not _repairable(p) or _breaks_index_rule(p, g):
            new_prods.append(p)
            continue
        body = [lift(s) if s.kind == TERMINAL else s for s in p.rhs]
        if len(body) == 2:
            new_prods.append(Production(p.lhs, tuple(body)))
            continue
        lhs_indexed = g.is_indexed_symbol(p.lhs)
        cur = body[0]
        for at in range(1, len(body) - 1):
            prefix_idx = any(map(g.is_indexed_symbol, p.rhs[: at + 1]))
            suffix_idx = any(map(g.is_indexed_symbol, p.rhs[at + 1 :]))
            k = helper_counts[p.lhs.base] = helper_counts.get(p.lhs.base, 0) + 1
            tied = prefix_idx and (suffix_idx or lhs_indexed)
            helper = Symbol(NONTERMINAL, f"{p.lhs.base}#{k}", g.index_variable if tied else None)
            new_prods.append(Production(helper, (cur, body[at])))
            cur = helper
        new_prods.append(Production(p.lhs, (cur, body[-1])))

    return WcnfGrammar(tuple(new_prods), g.start, g.index_variable)


def ensure_wcnf(g: Cfg) -> WcnfGrammar:
    """``g`` itself if it is already a :class:`WcnfGrammar`, else
    :func:`to_wcnf` of it."""
    return g if isinstance(g, WcnfGrammar) else to_wcnf(g)


def expand_indexed(g: WcnfGrammar, universe: Iterable[str]) -> WcnfGrammar:
    """Instantiate every index-parameterized production once per concrete
    index value, yielding an index-free grammar over concrete symbols.

    With an empty universe the indexed productions simply vanish, and with
    them every symbol that only they name.
    """
    if not g.is_indexed:
        return g
    tags = list(universe)

    def concretize(s: Symbol, tag: str) -> Symbol:
        if g.is_indexed_symbol(s):
            return Symbol(s.kind, s.base, tag)
        return s

    prods: list[Production] = []
    for p in g.productions:
        if any(map(g.is_indexed_symbol, (p.lhs, *p.rhs))):
            prods.extend(
                Production(concretize(p.lhs, tag), tuple(concretize(s, tag) for s in p.rhs))
                for tag in tags
            )
        else:
            prods.append(p)
    return WcnfGrammar(tuple(prods), g.start)


# ---------------------------------------------------------------------------
# built-in grammars

_PRESET_TEXTS: dict[str, str] = {
    # field-sensitive Java points-to, raw form
    "fsjpt": """\
start: PT
PT -> PTH alloc
PTH -> eps | assign PTH
PTH -> load_[i] Al store_[i] PTH
FT -> alloc_bar FTH
FTH -> eps | assign_bar FTH
FTH -> store_bar_[i] Al load_bar_[i] FTH
Al -> PT FT
""",
    # field-sensitive Java points-to, hand-tuned normal form
    "fsjpt-opt": """\
start: PT
PT -> alloc | assign PT | LPFS_[i] PT
FT -> alloc_bar | FT assign_bar | FT SPFL_[i]
LPFS_[i] -> LP_[i] FS_[i]
LP_[i] -> load_[i] PT
FS_[i] -> FT store_[i]
SPFL_[i] -> SP_[i] FL_[i]
SP_[i] -> store_bar_[i] PT
FL_[i] -> FT load_bar_[i]
""",
    # field-insensitive C/C++ memory alias, raw form
    "fica": """\
start: M
M -> d_bar V d
V -> eps | V1 V2 V3
V1 -> eps | V2 a_bar V1
V2 -> eps | M
V3 -> eps | a V2 V3
""",
    # field-insensitive C/C++ memory alias, hand-tuned normal form
    "fica-opt": """\
start: M
M -> N1 N3 | N2 N3
N1 -> d_bar | N1 a_bar | N2 a_bar
N2 -> N1 M
N3 -> d | a N3 | AM N3
AM -> a M
""",
    # field-sensitive C/C++ alias, raw form (M? is an optional symbol)
    "fsca": """\
start: M
M -> d_bar V d
V -> A_bar V A | f_bar_[i] V f_[i] | M | eps
A -> a M? | eps
A_bar -> M? a_bar | eps
""",
    # field-sensitive C/C++ alias, normal form
    "fsca-wcnf": """\
start: M
M -> DV d
DV -> d_bar V
V -> A_bar V | V A | FV_[i] f_[i] | M | eps
FV_[i] -> f_bar_[i] V
A -> a M | a | eps
A_bar -> M a_bar | a_bar | eps
""",
    # context-sensitive C/C++ value flow, raw form
    "cscvf": """\
start: A
A -> A A | a | eps
A -> call_[i] A ret_[i]
""",
    # context-sensitive C/C++ value flow, normal form
    "cscvf-wcnf": """\
start: A
A -> A a | A AH | eps
AH -> call_[i] AR_[i]
AR_[i] -> A ret_[i]
""",
    # balanced brackets; pairs with the chain/grid synthetic graphs
    "dyck": """\
start: S
S -> a S b | a b
""",
}

PRESET_NAMES = tuple(_PRESET_TEXTS)


def preset(name: str) -> Cfg:
    """Return a built-in grammar by name (see :data:`PRESET_NAMES`)."""
    try:
        text = _PRESET_TEXTS[name]
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise GrammarError(f"unknown preset {name!r} (known: {known})") from None
    return parse_grammar(text)


# raw preset -> the hand-transformed grammar that replaces it when the
# grammar-rewrite optimization is requested
OPT_GRAMMAR_FOR: dict[str, str] = {
    "fsjpt": "fsjpt-opt",
    "fsjpt-opt": "fsjpt-opt",
    "fica": "fica-opt",
    "fica-opt": "fica-opt",
    "fsca": "fsca-wcnf",
    "fsca-wcnf": "fsca-wcnf",
    "cscvf": "cscvf-wcnf",
    "cscvf-wcnf": "cscvf-wcnf",
}
