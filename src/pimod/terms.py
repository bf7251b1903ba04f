"""Term syntax, substitution and theories for a lambda-Pi calculus with rewriting.

Bound variables are de Bruijn indices; every binder keeps a display name
that is excluded from equality, so ``==`` on terms is alpha-equivalence.
Constants are fully applied: a ``Cons`` node carries exactly as many
arguments as the arity its declaration fixes.  ``Meta`` nodes are
pattern variables and may appear only inside rewrite rules.

One child map serves both term languages (framework terms here, which
are also the implicit source terms, and explicit PTS terms in
:mod:`pimod.epts`, three annotated nodes over the framework's leaves):
each inner node class states its subterms and binders in its methods
(see :class:`Term`).  ``Var`` is the one variable leaf.  Shifting,
substitution, the folds :func:`map_leaves` and :func:`subterms`,
contexts, redex search, conversion and morphism application are written
once against it.  Every table keyed by node identity is a
:class:`NodeMemo`.  The node classes are slotted dataclasses: a node
has no ``__dict__``, and it accepts a weak reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, KeysView

from .errors import Diagnostic, UnboundVariable


Children = tuple[tuple["Term", int], ...]


class Term:
    """A node of any term language.  Each inner node class overrides the
    three methods below next to its fields; the defaults describe a leaf."""

    __slots__ = ()

    def children(self) -> Children:
        """Immediate subterms, each with the number of binders around it."""
        return ()

    def with_children(self, kids: list[Term]) -> Term:
        """This node rebuilt from new subterms, in the order of :meth:`children`."""
        return self

    def same_node(self, other: Term) -> bool:
        """Has ``other`` the same constructor, so that the children correspond?"""
        return False


def same_class(self: Term, other: Term) -> bool:
    """:meth:`Term.same_node` of an inner node whose constructor has no
    data besides its subterms."""
    return type(other) is type(self)


class DkTerm(Term):
    """Base class for framework terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Var(DkTerm):
    index: int


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Cons(DkTerm):
    name: str
    args: tuple[DkTerm, ...] = ()

    def children(self) -> Children:
        return tuple([(a, 0) for a in self.args])

    def with_children(self, kids: list[DkTerm]) -> Cons:
        return Cons(self.name, tuple(kids))

    def same_node(self, other: Term) -> bool:
        return (type(other) is Cons and other.name == self.name
                and len(other.args) == len(self.args))


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Type(DkTerm):
    pass


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Kind(DkTerm):
    pass


TYPE = Type()
KIND = Kind()


@dataclass(frozen=True, slots=True, weakref_slot=True)
class App(DkTerm):
    fn: DkTerm
    arg: DkTerm

    def children(self) -> Children:
        return ((self.fn, 0), (self.arg, 0))

    def with_children(self, kids: list[DkTerm]) -> App:
        return App(kids[0], kids[1])

    same_node = same_class


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Lam(DkTerm):
    hint: str = field(compare=False)
    ann: DkTerm = field()
    body: DkTerm = field()

    def children(self) -> Children:
        return ((self.ann, 0), (self.body, 1))

    def with_children(self, kids: list[DkTerm]) -> Lam:
        return Lam(self.hint, kids[0], kids[1])

    same_node = same_class


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Pi(DkTerm):
    hint: str = field(compare=False)
    dom: DkTerm = field()
    cod: DkTerm = field()

    def children(self) -> Children:
        return ((self.dom, 0), (self.cod, 1))

    def with_children(self, kids: list[DkTerm]) -> Pi:
        return Pi(self.hint, kids[0], kids[1])

    same_node = same_class


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Meta(DkTerm):
    name: str


def map_leaves(t: Term, leaf: Callable[[Term, int], Term], depth: int = 0) -> Term:
    """Rebuild ``t`` with each leaf ``u`` replaced by ``leaf(u, d)``, where
    ``d`` is ``depth`` plus the number of binders above ``u``.  A node none
    of whose children changed is returned itself, not rebuilt."""
    kids = t.children()
    if not kids:
        return leaf(t, depth)
    new = []
    same = True
    for k, b in kids:
        u = map_leaves(k, leaf, depth + b)
        same = same and u is k
        new.append(u)
    return t if same else t.with_children(new)


def subterms(t: Term) -> Iterator[tuple[Term, int]]:
    """Every node of ``t`` in pre-order, with the number of binders above it."""
    stack = [(t, 0)]
    while stack:
        u, d = stack.pop()
        yield u, d
        for k, b in reversed(u.children()):
            stack.append((k, d + b))


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add ``by`` to every variable index at or above ``cutoff``."""
    if by == 0:
        return t

    def leaf(u: Term, d: int) -> Term:
        return Var(u.index + by) if type(u) is Var and u.index >= d else u
    return map_leaves(t, leaf, cutoff)


def _subst(t: Term, values: tuple[Term, ...], first: int, lift: int) -> Term:
    """Put ``values[i]``, weakened by ``lift`` plus the binders crossed, for
    variable ``first + i``; indices past the block drop by ``len(values)``."""
    n = len(values)

    def leaf(u: Term, d: int) -> Term:
        if type(u) is Var:
            k = u.index - first - d
            if k >= n:
                return Var(u.index - n)
            if k >= 0:
                return shift(values[k], lift + d)
        return u
    return map_leaves(t, leaf)


def subst(t: Term, j: int, value: Term) -> Term:
    """Capture-avoiding substitution of ``value`` for variable ``j``.

    ``value`` lives at the depth of ``t``'s root; variables above ``j``
    are decremented, so contracting a redex is ``subst(body, 0, arg)``.
    """
    return _subst(t, (value,), j, 0)


def subst_many(t: Term, values: tuple[Term, ...], depth: int = 0) -> Term:
    """Simultaneously substitute ``values[i]`` for variable ``depth + i``.

    Indices beyond the substituted block are decremented by
    ``len(values)``; the values themselves are weakened by ``depth`` as
    binders are crossed.
    """
    if not values:
        return t
    return _subst(t, values, depth, depth)


def metas_of(t: DkTerm) -> KeysView[str]:
    """The names of ``t``'s pattern variables in pre-order of first occurrence."""
    return dict.fromkeys(u.name for u, _ in subterms(t) if type(u) is Meta).keys()


def max_free_index(t: Term) -> int:
    """Largest free variable index, or -1 for a closed term."""
    top = -1
    stack = [t, 0]   # node, binders above it
    while stack:
        d = stack.pop()
        u = stack.pop()
        if type(u) is Var:
            if u.index - d > top:
                top = u.index - d
        else:
            for k, b in u.children():
                stack.append(k)
                stack.append(d + b)
    return top


class NodeMemo(dict):
    """A table of one call keyed by node identity: by ``id(node)`` or by a
    tuple holding such ids.  An id is unique only among live objects, so
    the table holds every node its keys name.  Reads are plain dict probes
    (``memo.get(id(u))``, ``id(u) in memo``); the one write, :meth:`put`,
    pins the key's nodes with the entry.  Equal but distinct node objects
    get entries of their own."""

    __slots__ = ("pins",)

    def __init__(self) -> None:
        super().__init__()
        self.pins: list[object] = []

    def put(self, key: object, value: object, pin: object) -> object:
        """Store ``value`` under ``key`` and return it; ``pin`` is the node
        whose id ``key`` holds, or a tuple of the nodes for several ids."""
        self[key] = value
        self.pins.append(pin)
        return value


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
    """An ordered signature plus rewrite rules.  Building one whose
    declaration mentions a variable outside its telescope, or whose rule
    has a free variable on the right, raises :class:`UnboundVariable`.

    Treated as immutable after construction; lookup tables are cached,
    and ``compiled_rules`` holds, by head and arity, the rules that fire
    on such a constant application, as :func:`pimod.rewrite.rules_at`
    compiles them on first use for the term rewriter and the machine.
    """

    signature: tuple[Declaration, ...]
    rules: tuple[RewriteRule, ...] = ()
    _by_name: dict[str, Declaration] = field(init=False, repr=False, compare=False)
    _rules_by_head: dict[str, tuple[RewriteRule, ...]] = field(init=False, repr=False, compare=False)
    compiled_rules: dict[tuple[str, int], tuple] = field(default_factory=dict, init=False,
                                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        for d in self.signature:
            for i, (_, ty) in enumerate(d.telescope):
                if max_free_index(ty) >= i:
                    raise UnboundVariable(
                        f"telescope entry {i} of '{d.name}' mentions variables outside the telescope")
            if max_free_index(d.result) >= d.arity:
                raise UnboundVariable(
                    f"result type of '{d.name}' mentions variables outside the telescope")
        self._by_name = {d.name: d for d in self.signature}
        by_head: dict[str, list[RewriteRule]] = {}
        for r in self.rules:
            if max_free_index(r.rhs) >= 0:
                raise UnboundVariable(
                    f"rule '{r.name}': right-hand side has free de Bruijn variables")
            by_head.setdefault(r.head, []).append(r)
        self._rules_by_head = {h: tuple(rs) for h, rs in by_head.items()}

    def decl(self, name: str) -> Declaration | None:
        return self._by_name.get(name)

    @property
    def names(self) -> KeysView[str]:
        """The declared constants' names, which printed binders avoid."""
        return self._by_name.keys()

    def rules_for(self, head: str) -> tuple[RewriteRule, ...]:
        return self._rules_by_head.get(head, ())


@dataclass(frozen=True)
class DkContext:
    """A typing context of any term language; entry types may mention
    earlier entries.

    Variable 0 of a term in the context refers to the *last* entry.
    """

    entries: tuple[tuple[str, Term], ...] = ()

    def extend(self, hint: str, ty: Term) -> "DkContext":
        return DkContext(self.entries + ((hint, ty),))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [h for h, _ in self.entries]

    def type_of(self, index: int) -> Term:
        """Type of variable ``index``, weakened to the full context."""
        n = len(self.entries)
        if not 0 <= index < n:
            raise UnboundVariable(f"de Bruijn index {index} out of range")
        return shift(self.entries[n - 1 - index][1], index + 1)


def _pattern_ok(t: DkTerm) -> bool:
    return all(type(u) is Meta or type(u) is Cons for u, _ in subterms(t))


def repeated_metas(patterns: tuple[DkTerm, ...]) -> list[str]:
    """Every occurrence of a pattern variable after its first, left to
    right through constant arguments: the left-hand side ``patterns`` is
    left-linear exactly when this is empty."""
    seen: set[str] = set()
    out: list[str] = []

    def walk(t: DkTerm) -> None:
        match t:
            case Meta(n):
                if n in seen:
                    out.append(n)
                seen.add(n)
            case Cons(_, args):
                for a in args:
                    walk(a)
    for p in patterns:
        walk(p)
    return out


def _scan(theory: Theory, t: DkTerm, subject: str, out: list[Diagnostic]) -> set[str]:
    """The pattern variables of ``t``, appending a diagnostic to ``out`` for
    each constant of ``t`` that is undeclared or misapplied, in pre-order."""
    metas: set[str] = set()
    for u, _ in subterms(t):
        if type(u) is Meta:
            metas.add(u.name)
        elif type(u) is Cons:
            d = theory.decl(u.name)
            if d is None:
                out.append(Diagnostic("unknown-constant", f"constant '{u.name}' is not declared", subject))
            elif d.arity != len(u.args):
                out.append(Diagnostic(
                    "arity-mismatch",
                    f"constant '{u.name}' declared with arity {d.arity} but applied to {len(u.args)} arguments",
                    subject))
    return metas


def validate_theory(theory: Theory) -> list[Diagnostic]:
    """Structural well-formedness of a theory, before any typing.

    Checks: unique constant names; correct constant arities in
    declarations; rule heads declared and applied at their arity;
    left-hand sides built from patterns only, left-linear; no pattern
    variable named like a declared constant; right-hand sides with
    pattern variables drawn from the left-hand side.  Closedness is
    :class:`Theory`'s own invariant.
    """
    out: list[Diagnostic] = []
    seen: set[str] = set()
    for d in theory.signature:
        if d.name in seen:
            out.append(Diagnostic("duplicate-constant", f"constant '{d.name}' declared twice", d.name))
        seen.add(d.name)
        for ty in [ty for _, ty in d.telescope] + [d.result]:
            if _scan(theory, ty, d.name, out):
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
        lhs_metas: set[str] = set()
        for p in r.lhs:
            arities: list[Diagnostic] = []
            lhs_metas |= _scan(theory, p, r.name, arities)
            if not _pattern_ok(p):
                out.append(Diagnostic(
                    "bad-pattern",
                    "left-hand side arguments must be pattern variables or constants applied to patterns",
                    r.name))
            else:
                out += arities
        if repeated_metas(r.lhs):
            out.append(Diagnostic("non-left-linear", "a pattern variable occurs twice on the left-hand side", r.name))
        for m in sorted(lhs_metas):
            if theory.decl(m) is not None:
                out.append(Diagnostic(
                    "meta-shadows-constant",
                    f"pattern variable '{m}' has the same name as a declared constant",
                    r.name))
        arities = []
        extra = _scan(theory, r.rhs, r.name, arities) - lhs_metas
        if extra:
            out.append(Diagnostic(
                "unbound-pattern-variable",
                f"right-hand side mentions pattern variables not bound on the left: {sorted(extra)}",
                r.name))
        out += arities
    return out
