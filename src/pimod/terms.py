"""Term syntax, substitution and theories for a lambda-Pi calculus with rewriting.

Bound variables are de Bruijn indices; every binder keeps a display name
that is excluded from equality, so ``==`` on terms is alpha-equivalence.
Constants are fully applied: a ``Cons`` node carries exactly as many
arguments as the arity its declaration fixes.  ``Meta`` nodes are
pattern variables and may appear only inside rewrite rules.

The child map, :func:`children` with :func:`with_children`, is the one
place that states which subterms a node has and how many binders it puts
around each.  Shifting, substitution, instantiation and the folds are
derived from it through :func:`map_leaves` and :func:`subterms`, and so
are redex search and the congruence descent of conversion in
:mod:`pimod.rewrite` (through :func:`same_node`) and morphism application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import Diagnostic


class DkTerm:
    """Base class for framework terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(DkTerm):
    index: int


@dataclass(frozen=True)
class Cons(DkTerm):
    name: str
    args: tuple[DkTerm, ...] = ()


@dataclass(frozen=True)
class Type(DkTerm):
    pass


@dataclass(frozen=True)
class Kind(DkTerm):
    pass


TYPE = Type()
KIND = Kind()


@dataclass(frozen=True)
class App(DkTerm):
    fn: DkTerm
    arg: DkTerm


@dataclass(frozen=True)
class Lam(DkTerm):
    hint: str = field(compare=False)
    ann: DkTerm = field()
    body: DkTerm = field()


@dataclass(frozen=True)
class Pi(DkTerm):
    hint: str = field(compare=False)
    dom: DkTerm = field()
    cod: DkTerm = field()


@dataclass(frozen=True)
class Meta(DkTerm):
    name: str


def mk_app(fn: DkTerm, *args: DkTerm) -> DkTerm:
    """Left-nested application ``fn a1 ... an``."""
    for a in args:
        fn = App(fn, a)
    return fn


def arrow(dom: DkTerm, cod: DkTerm) -> Pi:
    """Non-dependent product; the codomain is weakened under the binder."""
    return Pi("_", dom, shift(cod, 1))


def spine(t: DkTerm) -> tuple[DkTerm, list[DkTerm]]:
    """Split iterated application into head and argument list."""
    args: list[DkTerm] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


# The child map dispatches on exact types: every operation below runs
# through it, ``type(t) is`` is its fastest test, and no term class is
# subclassed.


def children(t: DkTerm) -> tuple[tuple[DkTerm, int], ...]:
    """Immediate subterms of ``t``, each with the number of binders ``t``
    puts around it.  Nodes without subterms are the leaves."""
    tp = type(t)
    if tp is App:
        return ((t.fn, 0), (t.arg, 0))
    if tp is Lam:
        return ((t.ann, 0), (t.body, 1))
    if tp is Pi:
        return ((t.dom, 0), (t.cod, 1))
    if tp is Cons:
        return tuple([(a, 0) for a in t.args])
    return ()


def with_children(t: DkTerm, kids: list[DkTerm]) -> DkTerm:
    """``t`` rebuilt from new subterms, in the order :func:`children` lists them."""
    tp = type(t)
    if tp is App:
        return App(kids[0], kids[1])
    if tp is Lam:
        return Lam(t.hint, kids[0], kids[1])
    if tp is Pi:
        return Pi(t.hint, kids[0], kids[1])
    if tp is Cons:
        return Cons(t.name, tuple(kids))
    return t


def same_node(x: DkTerm, y: DkTerm) -> bool:
    """Do ``x`` and ``y`` have the same constructor (for constants, the
    same name and arity), so that their :func:`children` correspond one
    to one?  False for variables, sorts and pattern variables."""
    tp = type(x)
    if tp is not type(y):
        return False
    if tp is Cons:
        return x.name == y.name and len(x.args) == len(y.args)
    return tp is App or tp is Lam or tp is Pi


def map_leaves(t: DkTerm, leaf: Callable[[DkTerm, int], DkTerm], depth: int = 0) -> DkTerm:
    """Rebuild ``t`` with each leaf ``u`` replaced by ``leaf(u, d)``, where
    ``d`` is ``depth`` plus the number of binders above ``u``."""
    kids = children(t)
    if not kids:
        return leaf(t, depth)
    new = []
    for k, b in kids:
        new.append(map_leaves(k, leaf, depth + b))
    return with_children(t, new)


def subterms(t: DkTerm) -> Iterator[tuple[DkTerm, int]]:
    """Every node of ``t`` in pre-order, with the number of binders above it."""
    stack = [(t, 0)]
    while stack:
        u, d = stack.pop()
        yield u, d
        for k, b in reversed(children(u)):
            stack.append((k, d + b))


def shift(t: DkTerm, by: int, cutoff: int = 0) -> DkTerm:
    """Add ``by`` to every variable index at or above ``cutoff``."""
    if by == 0:
        return t

    def leaf(u: DkTerm, d: int) -> DkTerm:
        return Var(u.index + by) if isinstance(u, Var) and u.index >= d else u
    return map_leaves(t, leaf, cutoff)


def _subst(t: DkTerm, values: tuple[DkTerm, ...], first: int, lift: int) -> DkTerm:
    """Put ``values[i]``, weakened by ``lift`` plus the binders crossed, for
    variable ``first + i``; indices past the block drop by ``len(values)``."""
    n = len(values)

    def leaf(u: DkTerm, d: int) -> DkTerm:
        if isinstance(u, Var):
            k = u.index - first - d
            if k >= n:
                return Var(u.index - n)
            if k >= 0:
                return shift(values[k], lift + d)
        return u
    return map_leaves(t, leaf)


def subst(t: DkTerm, j: int, value: DkTerm) -> DkTerm:
    """Capture-avoiding substitution of ``value`` for variable ``j``.

    ``value`` lives at the depth of ``t``'s root; variables above ``j``
    are decremented, so contracting a redex is ``subst(body, 0, arg)``.
    """
    return _subst(t, (value,), j, 0)


def subst_many(t: DkTerm, values: tuple[DkTerm, ...], depth: int = 0) -> DkTerm:
    """Simultaneously substitute ``values[i]`` for variable ``depth + i``.

    Indices beyond the substituted block are decremented by
    ``len(values)``; the values themselves are weakened by ``depth`` as
    binders are crossed.
    """
    if not values:
        return t
    return _subst(t, values, depth, depth)


def instantiate(t: DkTerm, env: dict[str, DkTerm], depth: int = 0) -> DkTerm:
    """Replace pattern variables by the terms a match bound them to."""
    def leaf(u: DkTerm, d: int) -> DkTerm:
        return shift(env[u.name], d) if isinstance(u, Meta) and u.name in env else u
    return map_leaves(t, leaf, depth)


def metas_of(t: DkTerm) -> set[str]:
    return {u.name for u, _ in subterms(t) if isinstance(u, Meta)}


def max_free_index(t: DkTerm, depth: int = 0) -> int:
    """Largest free variable index, or -1 for a closed term."""
    return max((u.index - depth - d for u, d in subterms(t)
                if isinstance(u, Var) and u.index >= depth + d), default=-1)


@dataclass(frozen=True)
class Declaration:
    """A constant declaration: a telescope of argument types and a result type.

    Telescope entry ``i`` is a term over the previous entries (entry
    ``i-1`` is variable 0 inside it); the result type is a term over the
    whole telescope.
    """

    name: str
    telescope: tuple[tuple[str, DkTerm], ...]
    result: DkTerm

    @property
    def arity(self) -> int:
        return len(self.telescope)


@dataclass(frozen=True)
class RewriteRule:
    """``head(lhs) --> rhs`` with pattern variables shared across the sides.

    The left-hand side arguments are first-order applicative patterns:
    pattern variables and constants applied to patterns, nothing else.
    """

    head: str
    lhs: tuple[DkTerm, ...]
    rhs: DkTerm
    name: str


@dataclass
class Theory:
    """An ordered signature plus rewrite rules.

    Treated as immutable after construction; lookup tables are cached.
    """

    signature: tuple[Declaration, ...]
    rules: tuple[RewriteRule, ...] = ()
    _by_name: dict[str, Declaration] = field(init=False, repr=False, compare=False)
    _rules_by_head: dict[str, tuple[RewriteRule, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_name = {d.name: d for d in self.signature}
        by_head: dict[str, list[RewriteRule]] = {}
        for r in self.rules:
            by_head.setdefault(r.head, []).append(r)
        self._rules_by_head = {h: tuple(rs) for h, rs in by_head.items()}

    def decl(self, name: str) -> Declaration | None:
        return self._by_name.get(name)

    def rules_for(self, head: str) -> tuple[RewriteRule, ...]:
        return self._rules_by_head.get(head, ())

    def extended(self, *decls: Declaration, rules: tuple[RewriteRule, ...] = ()) -> "Theory":
        return Theory(self.signature + tuple(decls), self.rules + tuple(rules))


@dataclass(frozen=True)
class DkContext:
    """A typing context; entry types may mention earlier entries.

    Variable 0 of a term in the context refers to the *last* entry.
    """

    entries: tuple[tuple[str, DkTerm], ...] = ()

    def extend(self, hint: str, ty: DkTerm) -> "DkContext":
        return DkContext(self.entries + ((hint, ty),))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [h for h, _ in self.entries]

    def type_of(self, index: int) -> DkTerm:
        """Type of variable ``index``, weakened to the full context."""
        n = len(self.entries)
        if not 0 <= index < n:
            raise IndexError(index)
        return shift(self.entries[n - 1 - index][1], index + 1)


def _pattern_ok(t: DkTerm) -> bool:
    match t:
        case Meta(_):
            return True
        case Cons(_, args):
            return all(_pattern_ok(a) for a in args)
        case _:
            return False


def _linear(patterns: tuple[DkTerm, ...]) -> bool:
    seen: set[str] = set()

    def walk(t: DkTerm) -> bool:
        match t:
            case Meta(n):
                if n in seen:
                    return False
                seen.add(n)
                return True
            case Cons(_, args):
                return all(walk(a) for a in args)
            case _:
                return True
    return all(walk(p) for p in patterns)


def _check_arities(theory: Theory, t: DkTerm, subject: str, out: list[Diagnostic]) -> None:
    for u, _ in subterms(t):
        if not isinstance(u, Cons):
            continue
        d = theory.decl(u.name)
        if d is None:
            out.append(Diagnostic("unknown-constant", f"constant '{u.name}' is not declared", subject))
        elif d.arity != len(u.args):
            out.append(Diagnostic(
                "arity-mismatch",
                f"constant '{u.name}' declared with arity {d.arity} but applied to {len(u.args)} arguments",
                subject))


def validate_theory(theory: Theory) -> list[Diagnostic]:
    """Structural well-formedness of a theory, before any typing.

    Checks: unique constant names; declaration bodies closed and with
    correct constant arities; rule heads declared and applied at their
    arity; left-hand sides built from patterns only, left-linear; no
    pattern variable named like a declared constant; right-hand sides
    closed, with pattern variables drawn from the left-hand side.
    """
    out: list[Diagnostic] = []
    seen: set[str] = set()
    for d in theory.signature:
        if d.name in seen:
            out.append(Diagnostic("duplicate-constant", f"constant '{d.name}' declared twice", d.name))
        seen.add(d.name)
        for i, (_, ty) in enumerate(d.telescope):
            _check_arities(theory, ty, d.name, out)
            if max_free_index(ty) >= i:
                out.append(Diagnostic(
                    "open-declaration",
                    f"telescope entry {i} of '{d.name}' mentions variables outside the telescope",
                    d.name))
            if metas_of(ty):
                out.append(Diagnostic("meta-in-declaration", f"pattern variable in declaration of '{d.name}'", d.name))
        _check_arities(theory, d.result, d.name, out)
        if max_free_index(d.result) >= d.arity:
            out.append(Diagnostic(
                "open-declaration",
                f"result type of '{d.name}' mentions variables outside the telescope",
                d.name))
        if metas_of(d.result):
            out.append(Diagnostic("meta-in-declaration", f"pattern variable in declaration of '{d.name}'", d.name))

    for r in theory.rules:
        d = theory.decl(r.head)
        if d is None:
            out.append(Diagnostic("unknown-constant", f"rule head '{r.head}' is not declared", r.name))
        elif d.arity != len(r.lhs):
            out.append(Diagnostic(
                "arity-mismatch",
                f"rule head '{r.head}' has arity {d.arity} but the pattern supplies {len(r.lhs)} arguments",
                r.name))
        for p in r.lhs:
            if not _pattern_ok(p):
                out.append(Diagnostic(
                    "bad-pattern",
                    "left-hand side arguments must be pattern variables or constants applied to patterns",
                    r.name))
            else:
                _check_arities(theory, p, r.name, out)
        if not _linear(r.lhs):
            out.append(Diagnostic("non-left-linear", "a pattern variable occurs twice on the left-hand side", r.name))
        lhs_metas: set[str] = set()
        for p in r.lhs:
            lhs_metas |= metas_of(p)
        for m in sorted(lhs_metas):
            if theory.decl(m) is not None:
                out.append(Diagnostic(
                    "meta-shadows-constant",
                    f"pattern variable '{m}' has the same name as a declared constant",
                    r.name))
        extra = metas_of(r.rhs) - lhs_metas
        if extra:
            out.append(Diagnostic(
                "unbound-pattern-variable",
                f"right-hand side mentions pattern variables not bound on the left: {sorted(extra)}",
                r.name))
        _check_arities(theory, r.rhs, r.name, out)
        if max_free_index(r.rhs) >= 0:
            out.append(Diagnostic("open-rule", "right-hand side has free de Bruijn variables", r.name))
    return out
