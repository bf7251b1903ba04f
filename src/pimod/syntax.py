"""Concrete syntax: a lexer, parsers for the file formats, and printers.

One token language serves every format.  Identifiers are liberal — they
may start with a digit and may contain ``@``, ``%`` and ``'`` — because
generated constant names embed mangled sort names.  Declarations end
with a period; the same character separates a binder from its body, and
the two uses never clash because a binder's body is always a complete
term.

One grammar (``_term``) parses framework terms and implicit source
terms, which are framework terms whose sorts are nullary constants;
only the scope differs (``_DkEnv``, ``_PtsEnv``).  One printer (``_r``)
prints them back in the same grammar, with binder hints freshened
against the names in scope and against ``avoid`` (a theory's constants,
a source term's sorts), so parse-print round trips are identities on
the underlying de Bruijn terms.  It also prints explicit source terms,
which are never parsed.  ``render`` prints both term languages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .errors import ParseError, Span
from .terms import (
    KIND,
    TYPE,
    App,
    Cons,
    Declaration,
    DkContext,
    DkTerm,
    Kind,
    Lam,
    Meta,
    Pi,
    RewriteRule,
    Theory,
    Type,
    Var,
    shift,
    subterms,
)
from .epts import (
    EApp,
    ELam,
    EPi,
    FiniteSortSpec,
    InternalizedSortSpec,
    SortSpec,
)
from .morphism import TheoryMorphism


KEYWORDS = frozenset({
    "TYPE", "KIND", "Pi", "lam",
    "constant", "rule", "assume", "check", "def", "map",
})


# --- lexer --------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "ident" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


# Blanks and comments match with no group name.  A string's closing quote
# is optional so that an unterminated string is reported as one.
_LEXEME = re.compile(r"""
    (?P<newline>\n) | [ \t\r]+ | \#[^\n]*
  | (?P<string>"[^"\n]*"?)
  | (?P<ident>[A-Za-z0-9_][A-Za-z0-9_@%']*)
  | (?P<punct>-->|->|:=|[(){}\[\],:.])
  | (?P<other>.)
""", re.VERBOSE)


def lex(text: str, source: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, bol = 1, 0  # the current line's number and the offset it starts at
    m = None
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line, bol = line + 1, m.end()
            continue
        s, col = m.group(), m.start() - bol + 1
        if kind == "string":
            if not s.endswith('"', 1):
                raise ParseError("unterminated string literal", Span(source, line, col))
            s = s[1:-1]
        elif kind == "other":
            raise ParseError(f"unexpected character {s!r}", Span(source, line, col))
        toks.append(Token(kind, s, line, col))
    # a comment advances no column: end of input after one sits where it starts
    end = m.start() if m and text.startswith("#", m.start()) else len(text)
    toks.append(Token("eof", "", line, end - bol + 1))
    return toks


class _Parser:
    def __init__(self, text: str, source: str):
        self.toks = lex(text, source)
        self.i = 0
        self.source = source

    def peek(self) -> Token:
        return self.toks[self.i]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def eat(self, kind: str, text: str | None = None) -> bool:
        if self.at(kind, text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            raise self.fail(f"expected {text or kind}")
        return self.advance()

    def fail(self, msg: str) -> ParseError:
        t = self.peek()
        found = f", found {t.text!r}" if t.text else " at end of input"
        return ParseError(msg + found, Span(self.source, t.line, t.col))

    def ident(self, what: str = "an identifier") -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise self.fail(f"expected {what}")
        return self.advance().text


# --- terms ---------------------------------------------------------------------
#
# One grammar serves both scopes:
#
#     term ::= (Pi | lam) NAME : term . term  |  app [-> term]
#     app  ::= atom atom*
#     atom ::= ( term )  |  NAME
#
# A scope supplies what differs between them: the reserved atoms, and
# ``free``, which resolves a NAME that no binder in scope claims (or
# returns None).


@dataclass
class _DkEnv:
    """Framework scope: ``TYPE`` and ``KIND`` are atoms, ``known`` maps
    constants to their arities, and when ``metas`` is set, identifiers
    that resolve to nothing become pattern variables (rule mode)."""

    known: dict[str, int]
    stack: list[str] = field(default_factory=list)
    metas: bool = False

    atoms = {"TYPE": TYPE, "KIND": KIND}

    def free(self, p: _Parser, name: str) -> DkTerm | None:
        if name in self.known:
            arity = self.known[name]
            if arity == 0:
                return Cons(name)
            p.expect("punct", "(")
            args = [_term(p, self)]
            while p.eat("punct", ","):
                args.append(_term(p, self))
            p.expect("punct", ")")
            if len(args) != arity:
                raise p.fail(f"constant '{name}' takes {arity} arguments, got {len(args)}")
            return Cons(name, tuple(args))
        return Meta(name) if self.metas else None


@dataclass
class _PtsEnv:
    """Source scope: free names are definitions, inlined and weakened
    past the binders added since, or sorts of ``spec``."""

    spec: SortSpec
    stack: list[str] = field(default_factory=list)
    defs: dict[str, tuple[DkTerm, int]] = field(default_factory=dict)

    atoms = {}

    def free(self, p: _Parser, name: str) -> DkTerm | None:
        if name in self.defs:
            body, base = self.defs[name]
            return shift(body, len(self.stack) - base)
        return Cons(name) if self.spec.has_sort(name) else None


def _term(p: _Parser, env: _DkEnv | _PtsEnv) -> DkTerm:
    if p.at("ident", "Pi") or p.at("ident", "lam"):
        kw = p.advance().text
        name = p.ident("a binder name")
        p.expect("punct", ":")
        ann = _term(p, env)
        p.expect("punct", ".")
        env.stack.append(name)
        try:
            body = _term(p, env)
        finally:
            env.stack.pop()
        return (Pi if kw == "Pi" else Lam)(name, ann, body)
    left = _app(p, env)
    if p.eat("punct", "->"):
        return Pi("_", left, shift(_term(p, env), 1))
    return left


def _starts_atom(p: _Parser) -> bool:
    t = p.peek()
    if t.kind == "punct" and t.text == "(":
        return True
    return t.kind == "ident" and (t.text in ("TYPE", "KIND") or t.text not in KEYWORDS)


def _app(p: _Parser, env: _DkEnv | _PtsEnv) -> DkTerm:
    t = _atom(p, env)
    while _starts_atom(p):
        t = App(t, _atom(p, env))
    return t


def _atom(p: _Parser, env: _DkEnv | _PtsEnv) -> DkTerm:
    if p.eat("punct", "("):
        t = _term(p, env)
        p.expect("punct", ")")
        return t
    tok = p.peek()
    if tok.kind == "ident" and tok.text in env.atoms:
        p.advance()
        return env.atoms[tok.text]
    name = p.ident("a term")
    for depth, bound in enumerate(reversed(env.stack)):
        if bound == name:
            return Var(depth)
    t = env.free(p, name)
    if t is None:
        raise p.fail(f"unknown identifier '{name}'")
    return t


def _parse_term(text: str, source: str, env: _DkEnv | _PtsEnv) -> DkTerm:
    p = _Parser(text, source)
    t = _term(p, env)
    p.expect("eof")
    return t


def parse_dk_term(text: str, theory: Theory, names: Sequence[str] = (),
                  metas: bool = False, source: str = "<term>") -> DkTerm:
    """Parse one framework term against a theory's signature."""
    env = _DkEnv({d.name: d.arity for d in theory.signature}, list(names), metas)
    return _parse_term(text, source, env)


def parse_pts_term(text: str, spec: SortSpec, names: Sequence[str] = (),
                   defs: dict[str, DkTerm] | None = None,
                   source: str = "<term>") -> DkTerm:
    """Parse one implicit-syntax term; ``defs`` are inlined abbreviations.

    Definition bodies must be expressed over exactly the ``names`` context.
    """
    env = _PtsEnv(spec, list(names),
                  {n: (b, len(names)) for n, b in (defs or {}).items()})
    return _parse_term(text, source, env)


# --- theory files ----------------------------------------------------------------


def _constant_clause(p: _Parser, known: dict[str, int], what: str) -> Declaration:
    """``NAME (x : A, ...) : B.`` after the keyword ``constant``; records
    the new constant's arity in ``known``."""
    name = p.ident(what)
    telescope: list[tuple[str, DkTerm]] = []
    tnames: list[str] = []
    if p.eat("punct", "("):
        while True:
            h = p.ident("a telescope variable")
            p.expect("punct", ":")
            telescope.append((h, _term(p, _DkEnv(known, list(tnames)))))
            tnames.append(h)
            if not p.eat("punct", ","):
                break
        p.expect("punct", ")")
    p.expect("punct", ":")
    result = _term(p, _DkEnv(known, list(tnames)))
    p.expect("punct", ".")
    known[name] = len(telescope)
    return Declaration(name, tuple(telescope), result)


def _rule_clause(p: _Parser, known: dict[str, int], label: str) -> RewriteRule:
    """``["NAME"] LHS --> RHS.`` after the keyword ``rule``; ``label``
    names the rule when no name is given."""
    if p.at("string"):
        label = p.advance().text
    lhs = _term(p, _DkEnv(known, [], metas=True))
    p.expect("punct", "-->")
    rhs = _term(p, _DkEnv(known, [], metas=True))
    p.expect("punct", ".")
    if type(lhs) is not Cons:
        raise p.fail("a rule's left-hand side must be a constant application")
    return RewriteRule(lhs.name, lhs.args, rhs, name=label)


@dataclass
class TheoryFile:
    """Payload of a theory file: the theory plus its test judgments."""

    theory: Theory
    assumes: DkContext
    checks: tuple[tuple[DkTerm, DkTerm], ...]


def parse_theory(text: str, source: str = "<theory>") -> TheoryFile:
    p = _Parser(text, source)
    decls: list[Declaration] = []
    rules: list[RewriteRule] = []
    known: dict[str, int] = {}
    assumes = DkContext()
    anames: list[str] = []
    checks: list[tuple[DkTerm, DkTerm]] = []

    while not p.at("eof"):
        if p.eat("ident", "constant"):
            decls.append(_constant_clause(p, known, "a constant name"))
        elif p.eat("ident", "rule"):
            rules.append(_rule_clause(p, known, f"rule-{len(rules)}"))
        elif p.eat("ident", "assume"):
            name = p.ident("a variable name")
            p.expect("punct", ":")
            ty = _term(p, _DkEnv(known, list(anames)))
            p.expect("punct", ".")
            assumes = assumes.extend(name, ty)
            anames.append(name)
        elif p.eat("ident", "check"):
            m = _term(p, _DkEnv(known, list(anames)))
            p.expect("punct", ":")
            a = _term(p, _DkEnv(known, list(anames)))
            p.expect("punct", ".")
            checks.append((m, a))
        else:
            raise p.fail("expected 'constant', 'rule', 'assume' or 'check'")

    return TheoryFile(Theory(tuple(decls), tuple(rules)), assumes, tuple(checks))


# --- implicit PTS files ------------------------------------------------------------


@dataclass
class EptsJudgment:
    name: str
    term: DkTerm
    type: DkTerm


@dataclass
class EptsFile:
    """Assumptions, named abbreviations and the judgments they induce.

    Definitions are inlined at parse time (a ``def`` is an abbreviation,
    not a new binder), so every recorded term is expressed over the
    assumption context alone.  Typed definitions additionally contribute
    a judgment.
    """

    assumes: tuple[tuple[str, DkTerm], ...]
    definitions: tuple[tuple[str, DkTerm], ...]
    judgments: tuple[EptsJudgment, ...]


def parse_epts_file(text: str, spec: SortSpec,
                    source: str = "<judgments>") -> EptsFile:
    p = _Parser(text, source)
    env = _PtsEnv(spec)
    assumes: list[tuple[str, DkTerm]] = []
    defs_in_order: list[tuple[str, DkTerm, int]] = []
    pending: list[tuple[str, DkTerm, DkTerm, int]] = []

    while not p.at("eof"):
        if p.eat("ident", "assume"):
            name = p.ident("a variable name")
            if name in env.defs or spec.has_sort(name):
                raise p.fail(f"'{name}' is already a definition or a sort")
            p.expect("punct", ":")
            ty = _term(p, env)
            p.expect("punct", ".")
            assumes.append((name, ty))
            env.stack.append(name)
        elif p.eat("ident", "def"):
            name = p.ident("a definition name")
            if name in env.defs or spec.has_sort(name) or name in env.stack:
                raise p.fail(f"'{name}' is already bound")
            ty: DkTerm | None = None
            if p.eat("punct", ":"):
                ty = _term(p, env)
            p.expect("punct", ":=")
            body = _term(p, env)
            p.expect("punct", ".")
            env.defs[name] = (body, len(env.stack))
            defs_in_order.append((name, body, len(env.stack)))
            if ty is not None:
                pending.append((name, body, ty, len(env.stack)))
        else:
            raise p.fail("expected 'assume' or 'def'")

    total = len(env.stack)
    definitions = tuple((n, shift(b, total - base))
                        for n, b, base in defs_in_order)
    judgments = tuple(
        EptsJudgment(n, shift(b, total - base), shift(ty, total - base))
        for n, b, ty, base in pending)
    return EptsFile(tuple(assumes), definitions, judgments)


# --- sort specification files ---------------------------------------------------


@dataclass
class SortSpecFile:
    finite: FiniteSortSpec | None
    internalized: InternalizedSortSpec | None


_SECTION = re.compile(r"^\[(sorts|axioms|rules|internalized)\]\s*$")
_AXIOM_LINE = re.compile(r"^(\S+)\s*:\s*(\S+)$")
_RULE_LINE = re.compile(r"^\(\s*(\S+?)\s*,\s*(\S+?)\s*\)\s*:\s*(\S+)$")


def _parse_internalized(text: str, source: str) -> InternalizedSortSpec:
    p = _Parser(text, source)
    known: dict[str, int] = {"Sort": 0, "Ax": 1, "Ru": 2}
    constants: list[Declaration] = []
    rules: list[RewriteRule] = []
    named: dict[str, DkTerm] = {}
    while not p.at("eof"):
        if p.eat("ident", "constant"):
            constants.append(_constant_clause(p, known, "a sort former"))
        elif p.eat("ident", "rule"):
            rules.append(_rule_clause(p, known, f"sort-rule-{len(rules)}"))
        else:
            name = p.ident("a sort name")
            p.expect("punct", ":=")
            named[name] = _term(p, _DkEnv(known, []))
            p.expect("punct", ".")
    return InternalizedSortSpec(tuple(constants), tuple(rules), named)


def parse_sort_spec_file(text: str, source: str = "<sorts>") -> SortSpecFile:
    """Line-oriented tables, with an optional token-parsed internalization."""
    section = None
    sorts: list[str] = []
    axioms: list[tuple[str, str]] = []
    rules: list[tuple[str, str, str]] = []
    internal_lines: list[str] | None = None
    saw_finite = False

    for lineno, raw in enumerate(text.split("\n"), start=1):
        if internal_lines is not None:
            internal_lines.append(raw)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            section = m.group(1)
            if section == "internalized":
                # blank stand-ins for the lines so far keep token spans file-relative
                internal_lines = [""] * lineno
            else:
                saw_finite = True
            continue
        where = Span(source, lineno, 1)
        if section == "sorts":
            sorts.extend(line.split())
        elif section == "axioms":
            m = _AXIOM_LINE.match(line)
            if not m:
                raise ParseError("expected 'SORT : SORT'", where)
            axioms.append((m.group(1), m.group(2)))
        elif section == "rules":
            m = _RULE_LINE.match(line)
            if not m:
                raise ParseError("expected '(SORT, SORT) : SORT'", where)
            rules.append((m.group(1), m.group(2), m.group(3)))
        else:
            raise ParseError("content before the first section header", where)

    finite = FiniteSortSpec.build(sorts, axioms, rules) if saw_finite else None
    internalized = None
    if internal_lines is not None:
        internalized = _parse_internalized("\n".join(internal_lines), source)
    return SortSpecFile(finite, internalized)


# --- morphism files ---------------------------------------------------------------


def parse_morphism(text: str, src: Theory, dst: Theory,
                   source: str = "<morphism>") -> TheoryMorphism:
    p = _Parser(text, source)
    known = {d.name: d.arity for d in dst.signature}
    body: dict[str, DkTerm] = {}
    while not p.at("eof"):
        p.expect("ident", "map")
        name = p.ident("a source constant")
        decl = src.decl(name)
        if decl is None:
            raise p.fail(f"'{name}' is not declared by the source theory")
        if name in body:
            raise p.fail(f"'{name}' is mapped twice")
        p.expect("punct", ":=")
        stack = [h for h, _ in decl.telescope]
        body[name] = _term(p, _DkEnv(known, stack))
        p.expect("punct", ".")
    return TheoryMorphism(src, dst, body)


# --- printers ----------------------------------------------------------------------


def _fresh(base: str, env: list[str], avoid: set[str]) -> str:
    name = base if base and base != "_" else "x"
    while name in env or name in avoid or name in KEYWORDS:
        name += "'"
    return name


def fresh_names(hints: Iterable[str], avoid: Iterable[str] = ()) -> list[str]:
    """The names a context's entries print under: each hint, primed until
    it differs from the names before it and from ``avoid``."""
    a = set(avoid)
    names: list[str] = []
    for h in hints:
        names.append(_fresh(h, names, a))
    return names


def _telescope(entries: Iterable[tuple[str, Any]], avoid: set[str]) -> tuple[list[str], list[str]]:
    """Each ``(hint, type)`` entry printed as ``name : type``: the name is
    the hint freshened against the names before it and ``avoid``, the
    type is printed over those names.  Also returns the names."""
    parts: list[str] = []
    names: list[str] = []
    for h, ty in entries:
        name = _fresh(h, names, avoid)
        parts.append(f"{name} : {_r(ty, names, 0, avoid)}")
        names.append(name)
    return parts, names


def _var_name(k: int, env: list[str]) -> str:
    if 0 <= k < len(env):
        return env[len(env) - 1 - k]
    return f"_v{k - len(env)}"


def _uses(t: Any, j: int) -> bool:
    """Does variable ``j`` occur in the term ``t``?"""
    return any(type(u) is Var and u.index == j + d for u, d in subterms(t))


_EXPLICIT_HEAD = {EPi: "Pi", ELam: "lam", EApp: "app"}


def _r(t: Any, env: list[str], prec: int, avoid: set[str]) -> str:
    """``t`` printed in context ``env``: at ``prec`` 1 an abstraction or a
    product needs parentheses, at 2 an application does too.  Explicit
    syntax is printed (for reports), never parsed back."""
    match t:
        # framework arms first: theories are most of what gets printed
        case Var(k):
            return _var_name(k, env)
        case Cons(c, ()):
            return c
        case Cons(c, args):
            return f"{c}({', '.join(_r(a, env, 0, avoid) for a in args)})"
        case App(f, a):
            s = f"{_r(f, env, 1, avoid)} {_r(a, env, 2, avoid)}"
            return s if prec <= 1 else f"({s})"
        case Pi(h, dom, cod):
            if _uses(cod, 0):
                name = _fresh(h, env, avoid)
                s = (f"Pi {name} : {_r(dom, env, 0, avoid)}. "
                     f"{_r(cod, env + [name], 0, avoid)}")
            else:  # the codomain never names the placeholder binder
                s = f"{_r(dom, env, 1, avoid)} -> {_r(cod, env + [''], 0, avoid)}"
            return s if prec == 0 else f"({s})"
        case Lam(h, ann, body):
            name = _fresh(h, env, avoid)
            s = (f"lam {name} : {_r(ann, env, 0, avoid)}. "
                 f"{_r(body, env + [name], 0, avoid)}")
            return s if prec == 0 else f"({s})"
        case Type():
            return "TYPE"
        case Kind():
            return "KIND"
        case Meta(name):
            return name
        case EPi() | ELam() | EApp():
            name = _fresh(t.hint, env, avoid)
            parts = ", ".join(f"{name}. {_r(k, env + [name], 0, avoid)}" if b
                              else _r(k, env, 0, avoid) for k, b in t.children())
            return f"{_EXPLICIT_HEAD[type(t)]}{{{t.s1},{t.s2}}}({parts})"
    raise TypeError(f"cannot render {type(t).__name__}")


def render(x: Any, names: Sequence[str] = (), avoid: Iterable[str] = ()) -> str:
    """A framework or source term over the context ``names``, its binders
    freshened against ``avoid``; else ``TypeError``."""
    return _r(x, list(names), 0, set(avoid))


def _r_signature(decls: Iterable[Declaration], rules: Iterable[RewriteRule],
                 avoid: set[str]) -> list[str]:
    """The ``constant`` and ``rule`` clauses of a theory, one per line."""
    lines = []
    for d in decls:
        parts, acc = _telescope(d.telescope, avoid)
        tele = f" ({', '.join(parts)})" if parts else ""
        lines.append(f"constant {d.name}{tele} : {_r(d.result, acc, 0, avoid)}.")
    for r in rules:
        lhs = _r(Cons(r.head, r.lhs), [], 0, avoid)
        lines.append(f'rule "{r.name}" {lhs} --> {_r(r.rhs, [], 0, avoid)}.')
    return lines


def render_theory(theory: Theory, assumes: DkContext | None = None,
                  checks: Iterable[tuple[DkTerm, DkTerm]] = ()) -> str:
    """A complete theory file, re-parseable by :func:`parse_theory`."""
    avoid = {d.name for d in theory.signature}
    lines = _r_signature(theory.signature, theory.rules, avoid)
    parts, acc = _telescope(assumes.entries if assumes is not None else (), avoid)
    lines += [f"assume {part}." for part in parts]
    for m, a in checks:
        lines.append(f"check {_r(m, acc, 0, avoid)} : {_r(a, acc, 0, avoid)}.")
    return "\n".join(lines) + "\n"


def render_bodies(mor: TheoryMorphism) -> Iterator[tuple[str, str]]:
    """Each mapped constant and its body, as :func:`render_morphism` prints them."""
    avoid = {d.name for d in mor.target.signature}
    for name, body in mor.body.items():
        decl = mor.source.decl(name)
        acc = fresh_names((h for h, _ in decl.telescope) if decl is not None else (), avoid)
        yield name, _r(body, acc, 0, avoid)


def render_morphism(mor: TheoryMorphism) -> str:
    return "\n".join(f"map {name} := {body}." for name, body in render_bodies(mor)) + "\n"
