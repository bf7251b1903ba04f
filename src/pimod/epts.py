"""Pure type systems with explicit sort and codomain annotations.

Two layers of syntax share one notion of sorts.  The implicit layer is
the usual PTS language, which is the framework's term language with
each sort a nullary constant: ``PtsTerm``, ``PVar``, ``PSort``,
``PPi``, ``PLam`` and ``PApp`` are the source spellings of
:class:`pimod.terms.DkTerm`, ``Var``, ``Cons``, ``Pi``, ``Lam`` and
``App``.  The explicit layer's nodes, ``EPi``, ``ELam`` and ``EApp``
(``EptsTerm``), also record the sort pair of the product rule involved
and the full codomain family; its leaves are the same ``Var`` and
nullary ``Cons`` (``EVar`` and ``ESort``), so a leaf passes through every
stage as the same object.  Beta reduction on the explicit layer is
linearized: it fires only when the application and abstraction agree
on their sort pair, and it never inspects the remaining annotations.
``elaborate`` is the type-directed map from implicit to explicit syntax
and ``erase_to_pts`` its left inverse.

Both layers are :class:`pimod.terms.Term` languages: each inner node
states its subterms and binders in its own ``children`` method, and
shifting, substitution and typing contexts come from :mod:`pimod.terms`'s
one child map.  Reduction runs on :mod:`pimod.rewrite`'s one engine,
the framework's too: this module supplies only linearized beta at the
root, labeled by its sort pair, and its own weak-head normalizer; the
redex search, the trace loop and the congruence descent of conversion
are the engine's.

Sorts come from a :class:`SortSpec`: either a finite enumeration with
explicit axiom/rule tables, or an internalized presentation where sorts
are closed first-order terms and the axiom and rule maps are computed
by rewriting the distinguished ``Ax``/``Ru`` symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    Diagnostic,
    ElaborationFailed,
    FuelExhausted,
    NonFunctionalSpec,
    NotAProduct,
    PimodError,
    SideConditionFailed,
    TopSortHasNoType,
    TypeMismatch,
    UnknownSort,
)
from .rewrite import Fuel, Root, congruent, first_redex, nf as dk_nf, normalize
from .terms import (
    TYPE,
    App,
    Children,
    Cons,
    Declaration,
    DkContext,
    DkTerm,
    Lam,
    NodeMemo,
    Pi,
    RewriteRule,
    Term,
    Theory,
    Var,
    subst,
    subterms,
    validate_theory,
)


# --- sort specifications ------------------------------------------------------


class SortSpec:
    """A functional PTS specification (S, A, R), in either presentation.

    A subclass sets ``known``, the set of declared sort names, and
    ``sorts``, the same names in order, and answers one question,
    :meth:`_value`: is the axiom (``op`` ``"Ax"``, one sort) or the
    product rule (``"Ru"``, two sorts) defined, what is its sort name
    (None if it has none) and what is its value.  Everything else is
    derived from that answer here, once: :meth:`require` rejects an
    undeclared sort; :meth:`axiom_of` and :meth:`rule_of` give the name
    and raise :class:`UnknownSort` for a defined value that has none,
    which :meth:`axiom_defined` and :meth:`rule_defined` count as defined
    and :meth:`coverage_diagnostics` notes.
    """

    known: frozenset[str]
    sorts: tuple[str, ...]

    def has_sort(self, name: str) -> bool:
        return name in self.known

    def require(self, name: str) -> None:
        if name not in self.known:
            raise UnknownSort(f"unknown sort '{name}'")

    def _value(self, op: str, sorts: tuple[str, ...]) -> tuple[bool, str | None, object]:
        """Whether ``op`` over ``sorts`` is defined, its name and its value;
        :class:`UnknownSort` for an undeclared sort."""
        raise NotImplementedError

    def _named(self, what: str, op: str, sorts: tuple[str, ...]) -> str | None:
        defined, name, v = self._value(op, sorts)
        if defined and name is None:
            raise UnknownSort(f"{what} evaluates to a sort with no declared name", value=v)
        return name

    def axiom_of(self, s: str) -> str | None:
        return self._named(f"the axiom of '{s}'", "Ax", (s,))

    def rule_of(self, s1: str, s2: str) -> str | None:
        return self._named(f"the product rule for ({s1}, {s2})", "Ru", (s1, s2))

    def axiom_defined(self, s: str) -> bool:
        return self._value("Ax", (s,))[0]

    def rule_defined(self, s1: str, s2: str) -> bool:
        return self._value("Ru", (s1, s2))[0]

    def coverage_diagnostics(self) -> list[Diagnostic]:
        """A note for each axiom and rule that is defined but has no sort name."""
        asks = [("unnamed-axiom", f"the axiom of '{s}'", s, "Ax", (s,))
                for s in self.sorts]
        asks += [("unnamed-rule", f"the product rule for ({s1}, {s2})", f"({s1}, {s2})",
                  "Ru", (s1, s2)) for s1 in self.sorts for s2 in self.sorts]
        out: list[Diagnostic] = []
        for code, what, subject, op, sorts in asks:
            defined, name, _ = self._value(op, sorts)
            if defined and name is None:
                out.append(Diagnostic(code, f"{what} is defined but has no declared name",
                                      subject, severity="note"))
        return out


@dataclass(frozen=True)
class FiniteSortSpec(SortSpec):
    """A functional PTS specification given by finite tables.

    ``axioms[s1] == s2`` means ``s1 : s2`` and ``rules[(s1, s2)] == s3``
    licenses products over (s1, s2) living in s3.  Functionality is
    inherent in the table representation; :meth:`build` additionally
    rejects contradictory duplicates in raw input.
    """

    sorts: tuple[str, ...]
    axioms: Mapping[str, str]
    rules: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        seen = frozenset(self.sorts)
        if len(seen) != len(self.sorts):
            raise NonFunctionalSpec("a sort is declared more than once",
                                    sorts=self.sorts)
        for s1, s2 in self.axioms.items():
            if s1 not in seen or s2 not in seen:
                raise UnknownSort(f"axiom ({s1} : {s2}) mentions an undeclared sort")
        for (s1, s2), s3 in self.rules.items():
            if not {s1, s2, s3} <= seen:
                raise UnknownSort(f"rule ({s1}, {s2}) : {s3} mentions an undeclared sort")
        object.__setattr__(self, "known", seen)

    @classmethod
    def build(cls, sorts: Iterable[str],
              axioms: Iterable[tuple[str, str]],
              rules: Iterable[tuple[str, str, str]]) -> "FiniteSortSpec":
        ax: dict[str, str] = {}
        for s1, s2 in axioms:
            if s1 in ax and ax[s1] != s2:
                raise NonFunctionalSpec(
                    f"two distinct axioms for sort '{s1}'", given=(ax[s1], s2))
            ax[s1] = s2
        ru: dict[tuple[str, str], str] = {}
        for s1, s2, s3 in rules:
            if (s1, s2) in ru and ru[(s1, s2)] != s3:
                raise NonFunctionalSpec(
                    f"two distinct rules for sorts ({s1}, {s2})",
                    given=(ru[(s1, s2)], s3))
            ru[(s1, s2)] = s3
        return cls(tuple(sorts), ax, ru)

    def _value(self, op: str, sorts: tuple[str, ...]) -> tuple[bool, str | None, object]:
        for s in sorts:
            self.require(s)
        v = self.axioms.get(sorts[0]) if op == "Ax" else self.rules.get(sorts)
        return v is not None, v, v


SORT = Cons("Sort")

CORE_SORT_SIGNATURE: tuple[Declaration, ...] = (
    Declaration("Sort", (), TYPE),
    Declaration("Ax", (("s", SORT),), SORT),
    Declaration("Ru", (("s1", SORT), ("s2", SORT)), SORT),
)

_CORE_NAMES = frozenset(d.name for d in CORE_SORT_SIGNATURE)


@dataclass
class InternalizedSortSpec(SortSpec):
    """Sorts as closed first-order terms, with computed axiom/rule maps.

    ``constants`` declare the sort formers (every telescope entry and
    every result must literally be ``Sort``); ``rules`` rewrite ``Ax``,
    ``Ru`` and any auxiliary formers; ``named`` gives surface names to
    the closed sort terms a user may write down.  Both maps may be
    partial: a stuck ``Ax``/``Ru`` application means "undefined", while
    a defined result that no name points to is reported as
    :class:`UnknownSort` when something forces us to print it.

    Sort terms are evaluated through :meth:`evaluate`, memoized per spec:
    each distinct term, an ``Ax(s)``/``Ru(s1, s2)`` lookup or a sort
    argument an encoding reads back, is normalized once, under the
    spec's own step budget.  That budget is fixed, so an evaluation that
    exhausts it is remembered too and fails again without re-running.
    An unnamed lookup result raises a fresh :class:`UnknownSort` on every
    call.
    """

    constants: tuple[Declaration, ...]
    rules: tuple[RewriteRule, ...]
    named: Mapping[str, DkTerm]
    mini: Theory = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for d in self.constants:
            if d.name in _CORE_NAMES:
                raise PimodError(f"sort former may not be called '{d.name}'")
            if d.result != SORT or any(a != SORT for _, a in d.telescope):
                raise PimodError(
                    f"sort former '{d.name}' must map Sorts to Sort")
        self.mini = Theory(CORE_SORT_SIGNATURE + tuple(self.constants),
                           tuple(self.rules))
        problems = [d for d in validate_theory(self.mini) if d.severity == "error"]
        if problems:
            raise PimodError("ill-formed sort internalization",
                             problems=[p.message for p in problems])
        self._defined_heads = frozenset(r.head for r in self.rules) | {"Ax", "Ru"}
        self._values: dict[DkTerm, tuple[DkTerm, str | None] | FuelExhausted] = {}
        self.known = frozenset(self.named)
        for name, t in self.named.items():
            self._check_sort_term(name, t)
        terms: dict[DkTerm, DkTerm] = {}   # one object per distinct sort term

        def share(t: Cons) -> Cons:
            t = Cons(t.name, tuple(map(share, t.args)))
            return terms.setdefault(t, t)
        self.named = {name: share(t) for name, t in self.named.items()}

    def _check_sort_term(self, name: str, t: DkTerm) -> None:
        for u, _ in subterms(t):
            if type(u) is not Cons:
                raise PimodError(f"sort term for '{name}' is not a constructor term")
            d = self.mini.decl(u.name)
            if d is None or u.name in _CORE_NAMES:
                raise PimodError(
                    f"sort term for '{name}' uses '{u.name}', which is not a sort former")
            if len(u.args) != d.arity:
                raise PimodError(
                    f"sort term for '{name}' applies '{u.name}' to {len(u.args)} "
                    f"arguments, expected {d.arity}")

    @property
    def sorts(self) -> tuple[str, ...]:
        return tuple(self.named)

    def sort_term(self, name: str) -> DkTerm:
        self.require(name)
        return self.named[name]

    def name_of(self, t: DkTerm) -> str | None:
        for name, v in self.named.items():
            if v == t:
                return name
        return None

    def evaluate(self, t: DkTerm) -> tuple[DkTerm, str | None]:
        """The normal form of the sort term ``t`` and its declared name
        (None if it has none).  An evaluation that ran out of steps is
        remembered as well and raises the same ``FuelExhausted`` again."""
        out = self._values.get(t)
        if out is None:
            try:
                v = dk_nf(self.mini, t)
            except FuelExhausted as e:
                out = e.with_traceback(None)   # keep no frames of the evaluation
            else:
                out = (v, self.name_of(v))
            self._values[t] = out
        if isinstance(out, FuelExhausted):
            raise FuelExhausted(*out.args)
        return out

    def _is_value(self, t: DkTerm) -> bool:
        return all(type(u) is Cons and u.name not in self._defined_heads
                   for u, _ in subterms(t))

    def _value(self, op: str, sorts: tuple[str, ...]) -> tuple[bool, str | None, object]:
        v, name = self.evaluate(Cons(op, tuple(map(self.sort_term, sorts))))
        return name is not None or self._is_value(v), name, v


# --- syntax -------------------------------------------------------------------


class EptsTerm(Term):
    """An annotated node of an explicit PTS term; the leaves are ``Var`` and ``Cons``."""

    __slots__ = ()


def _same_rule(self: EptsTerm, other: Term) -> bool:
    """:meth:`Term.same_node` of the annotated inner nodes: the same sort pair too."""
    return type(other) is type(self) and other.s1 == self.s1 and other.s2 == self.s2


@dataclass(frozen=True)
class EPi(EptsTerm):
    s1: str
    s2: str
    dom: EptsTerm
    hint: str = field(compare=False)
    cod: EptsTerm = field()

    def children(self) -> Children:
        return ((self.dom, 0), (self.cod, 1))

    def with_children(self, kids: list[EptsTerm]) -> EPi:
        return EPi(self.s1, self.s2, kids[0], self.hint, kids[1])

    same_node = _same_rule


@dataclass(frozen=True)
class ELam(EptsTerm):
    """Abstraction carrying its full product type alongside the body."""

    s1: str
    s2: str
    dom: EptsTerm
    hint: str = field(compare=False)
    cod: EptsTerm = field()
    body: EptsTerm = field()

    def children(self) -> Children:
        return ((self.dom, 0), (self.cod, 1), (self.body, 1))

    def with_children(self, kids: list[EptsTerm]) -> ELam:
        return ELam(self.s1, self.s2, kids[0], self.hint, kids[1], kids[2])

    same_node = _same_rule


@dataclass(frozen=True)
class EApp(EptsTerm):
    """Application annotated with the product type being eliminated."""

    s1: str
    s2: str
    dom: EptsTerm
    hint: str = field(compare=False)
    cod: EptsTerm = field()
    fn: EptsTerm = field()
    arg: EptsTerm = field()

    def children(self) -> Children:
        return ((self.dom, 0), (self.cod, 1), (self.fn, 0), (self.arg, 0))

    def with_children(self, kids: list[EptsTerm]) -> EApp:
        return EApp(self.s1, self.s2, kids[0], self.hint, kids[1], kids[2], kids[3])

    same_node = _same_rule


# the implicit layer's spellings, and the explicit layer's leaves (see the
# module docstring)
PtsTerm = DkTerm
PVar, PSort, PPi, PLam, PApp = Var, Cons, Pi, Lam, App
EVar, ESort = Var, Cons


def erase_to_pts(t: EptsTerm) -> DkTerm:
    """Drop the sort and codomain annotations; a leaf is returned itself."""
    match t:
        case EPi(_, _, dom, h, cod):
            return Pi(h, erase_to_pts(dom), erase_to_pts(cod))
        case ELam(_, _, dom, h, _, body):
            return Lam(h, erase_to_pts(dom), erase_to_pts(body))
        case EApp(_, _, _, _, _, fn, arg):
            return App(erase_to_pts(fn), erase_to_pts(arg))
    return t


# --- linearized beta reduction -------------------------------------------------


def _beta_root(spec: SortSpec) -> Root:
    """Linearized beta at the root, labeled by the redex's sort pair: it
    fires when the application and abstraction agree on a sort pair that
    has a product rule."""
    def root(t: EptsTerm):
        match t:
            case EApp(s1, s2, _, _, _, ELam(t1, t2, _, _, _, body), arg) \
                    if s1 == t1 and s2 == t2 and spec.rule_defined(s1, s2):
                yield (s1, s2), subst(body, 0, arg)
    return root


def epts_redex(spec: SortSpec, t: EptsTerm) -> tuple[EptsTerm, tuple[str, str]] | None:
    """The leftmost-outermost linearized beta step with the sort pair of its
    redex, or None at a normal form.

    The search visits the annotation and subject components in
    declaration order (domain, codomain, function part, argument), the
    argument order of the framework image of an application, so a
    source step and its simulation contract at corresponding positions.
    """
    r = first_redex(_beta_root(spec), t, NodeMemo())
    return None if r is None else (r[2], r[1])


def epts_reduce(spec: SortSpec, t: EptsTerm,
                fuel: int | Fuel | None = None) -> tuple[EptsTerm, list[EptsTerm]]:
    """Normalize, returning the normal form and all intermediate terms."""
    trace = [u for _, u in normalize(_beta_root(spec), t, fuel)]
    return (trace[-1] if trace else t), trace


def epts_nf(spec: SortSpec, t: EptsTerm, fuel: int | Fuel | None = None) -> EptsTerm:
    for _, t in normalize(_beta_root(spec), t, fuel):
        pass
    return t


def epts_whnf(spec: SortSpec, t: EptsTerm, fuel: int | Fuel | None = None) -> EptsTerm:
    """Weak head normal form by :func:`_beta_root`; annotations are left untouched."""
    f = Fuel.of(fuel)
    root = _beta_root(spec)
    while type(t) is EApp:
        fn = epts_whnf(spec, t.fn, f)
        if fn is not t.fn:
            t = t.with_children([t.dom, t.cod, fn, t.arg])
        for _, red in root(t):
            f.tick()
            t = red
            break
        else:
            return t
    return t


def epts_convertible(spec: SortSpec, a: EptsTerm, b: EptsTerm,
                     fuel: int | Fuel | None = None) -> bool:
    f = Fuel.of(fuel)
    return congruent(lambda u: epts_whnf(spec, u, f), a, b)


# --- typing -------------------------------------------------------------------


EptsContext = DkContext


def _expect(spec: SortSpec, ctx: EptsContext, m: EptsTerm, got: EptsTerm,
            ty: EptsTerm, f: Fuel) -> None:
    """``m``, whose type is ``got``, must have the type ``ty``."""
    if not epts_convertible(spec, got, ty, f):
        raise TypeMismatch("term does not have the required type", names=ctx.names,
                           avoid=spec.sorts, expected=ty, actual=got, subject=m)


def _require_rule(spec: SortSpec, s1: str, s2: str) -> None:
    if not spec.rule_defined(s1, s2):
        raise SideConditionFailed(f"no product rule for the sort pair ({s1}, {s2})")


def _head_type(spec: SortSpec, ctx: EptsContext, m: EptsTerm) -> EptsTerm:
    """The type that the typing rule of ``m``'s head concludes, with its
    premises left unchecked.  Each conclusion is written here once:
    :class:`_Checker` reads it after checking the premises, and
    elaboration reads it off the terms it builds, whose premises its
    own derivation has established."""
    match m:
        case Var(k):
            return ctx.type_of(k)
        case Cons(s, ()):
            a = spec.axiom_of(s)
            if a is None:
                raise TopSortHasNoType(f"sort '{s}' has no axiom")
            return Cons(a)
        case EPi(s1, s2):
            return Cons(spec.rule_of(s1, s2))
        case ELam(s1, s2, dom, h, cod):
            return EPi(s1, s2, dom, h, cod)
        case EApp(cod=cod, arg=arg):
            return subst(cod, 0, arg)
    raise PimodError(f"cannot type {m!r}")


class _Checker:
    """The state of one top-level call of the source checker: the spec,
    the budget, and two :class:`pimod.terms.NodeMemo` tables.
    ``contexts`` interns contexts by (context, name, domain object), so
    extending a context by the same name and domain object gives the
    same context object; ``memo`` holds the inferred types by (node
    object, interned context), so a subterm the term shares is typed
    once per context it occurs in.  :meth:`infer` checks the premises of
    a node's typing rule and takes the conclusion from
    :func:`_head_type`.  Only successes are stored: a failure ends the
    call, and the walk visits the nodes in the order it always has, so
    the first error is the one a walk without the memo would meet.
    """

    __slots__ = ("spec", "f", "contexts", "memo")

    def __init__(self, spec: SortSpec, f: Fuel):
        self.spec = spec
        self.f = f
        self.contexts = NodeMemo()
        self.memo = NodeMemo()

    def extend(self, ctx: EptsContext, hint: str, dom: EptsTerm) -> EptsContext:
        key = (id(ctx), hint, id(dom))
        inner = self.contexts.get(key)
        if inner is None:
            inner = self.contexts.put(key, ctx.extend(hint, dom), (ctx, dom))
        return inner

    def check(self, ctx: EptsContext, m: EptsTerm, ty: EptsTerm) -> None:
        _expect(self.spec, ctx, m, self.infer(ctx, m), ty, self.f)

    def product(self, ctx: EptsContext, m: EPi | ELam | EApp) -> EptsContext:
        """What the typing rules of ``m``, a product, abstraction or
        application, share: both sorts known, the domain at ``s1``, the
        codomain at ``s2`` under the binder, and a product rule for the
        pair.  Returns the context under the binder."""
        spec = self.spec
        spec.require(m.s1)
        spec.require(m.s2)
        self.check(ctx, m.dom, Cons(m.s1))
        inner = self.extend(ctx, m.hint, m.dom)
        self.check(inner, m.cod, Cons(m.s2))
        _require_rule(spec, m.s1, m.s2)
        return inner

    def infer(self, ctx: EptsContext, m: EptsTerm) -> EptsTerm:
        key = (id(m), id(ctx))
        ty = self.memo.get(key)
        if ty is not None:
            return ty
        match m:
            case EPi():
                self.product(ctx, m)
            case ELam(cod=cod, body=body):
                self.check(self.product(ctx, m), body, cod)
            case EApp(s1, s2, dom, h, cod, fn, arg):
                self.product(ctx, m)
                self.check(ctx, fn, EPi(s1, s2, dom, h, cod))
                self.check(ctx, arg, dom)
        return self.memo.put(key, _head_type(self.spec, ctx, m), (m, ctx))


def epts_infer(spec: SortSpec, ctx: EptsContext, m: EptsTerm,
               fuel: int | Fuel | None = None) -> EptsTerm:
    return _Checker(spec, Fuel.of(fuel)).infer(ctx, m)


def epts_check(spec: SortSpec, ctx: EptsContext, m: EptsTerm, ty: EptsTerm,
               fuel: int | Fuel | None = None) -> None:
    _Checker(spec, Fuel.of(fuel)).check(ctx, m, ty)


def _sort_of(spec: SortSpec, ctx: EptsContext, a: EptsTerm, ty: EptsTerm,
             f: Fuel) -> str:
    """The sort ``s`` with ``a : s``, given ``ty``, the type of ``a``."""
    ty = epts_whnf(spec, ty, f)
    match ty:
        case Cons(s, ()):
            return s
    raise ElaborationFailed("expected a type, but its type is not a sort",
                            names=ctx.names, avoid=spec.sorts, subject=a, actual=ty)


def sort_of_type(spec: SortSpec, ctx: EptsContext, a: EptsTerm,
                 fuel: int | Fuel | None = None) -> str:
    """The sort ``s`` with ``a : s``; fails if the type of ``a`` is not a sort."""
    f = Fuel.of(fuel)
    return _sort_of(spec, ctx, a, epts_infer(spec, ctx, a, f), f)


# --- elaboration ----------------------------------------------------------------


def _as_type(spec: SortSpec, f: Fuel, ctx: EptsContext, t: PtsTerm) -> tuple[EptsTerm, str]:
    """``t`` elaborated as a type, with the sort it lives in."""
    m = _elab(spec, f, ctx, t)
    return m, _sort_of(spec, ctx, m, _head_type(spec, ctx, m), f)


def _elab(spec: SortSpec, f: Fuel, ctx: EptsContext, t: PtsTerm) -> EptsTerm:
    """``t`` elaborated.  A caller that needs the result's type reads it
    off the result with :func:`_head_type`, so a sort's axiom (a top sort
    has none) and a product's rule (its value may have no name) raise
    only where a type is demanded."""
    match t:
        case Var(k):
            if not 0 <= k < len(ctx):
                ctx.type_of(k)   # raises UnboundVariable
            return t
        case Cons(s, ()):
            spec.require(s)
            return t
        case Pi(h, dom, cod):
            edom, s1 = _as_type(spec, f, ctx, dom)
            ecod, s2 = _as_type(spec, f, ctx.extend(h, edom), cod)
            _require_rule(spec, s1, s2)
            return EPi(s1, s2, edom, h, ecod)
        case Lam(h, dom, body):
            edom, s1 = _as_type(spec, f, ctx, dom)
            inner = ctx.extend(h, edom)
            ebody = _elab(spec, f, inner, body)
            ecod = _head_type(spec, inner, ebody)
            s2 = _sort_of(spec, inner, ecod, _head_type(spec, inner, ecod), f)
            _require_rule(spec, s1, s2)
            return ELam(s1, s2, edom, h, ecod, ebody)
        case App(fn, arg):
            efn = _elab(spec, f, ctx, fn)
            fnty = epts_whnf(spec, _head_type(spec, ctx, efn), f)
            match fnty:
                case EPi(s1, s2, dom, h, cod):
                    earg = _elab(spec, f, ctx, arg)
                    _expect(spec, ctx, earg, _head_type(spec, ctx, earg), dom, f)
                    return EApp(s1, s2, dom, h, cod, efn, earg)
            raise NotAProduct("the function part of an application is not "
                              "of product type", names=ctx.names, avoid=spec.sorts,
                              head=efn, head_type=fnty)
    raise PimodError(f"cannot elaborate {t!r}")


def elaborate(spec: SortSpec, ctx: EptsContext, t: PtsTerm,
              fuel: int | Fuel | None = None) -> EptsTerm:
    """Type-directed translation of implicit PTS syntax into explicit syntax.

    The result is well-typed whenever elaboration succeeds, and erasing
    its annotations gives back ``t`` exactly.  Elaboration is one pass
    that checks nothing twice: where it needs the type of an explicit
    term it has built (a type's sort, an abstraction's body type and that
    type's sort, an application's function and argument types), it reads
    the conclusion of the term's typing rule with :func:`_head_type`,
    whose premises the pass has already established.  The work is linear
    in the nodes.  The type of a sort is computed only when a caller asks
    for it, so ``elaborate`` of a top sort succeeds and only its use as a
    typed term fails.
    """
    return _elab(spec, Fuel.of(fuel), ctx, t)


def elaborate_context(spec: SortSpec, entries: Iterable[tuple[str, PtsTerm]],
                      fuel: int | Fuel | None = None) -> EptsContext:
    f = Fuel.of(fuel)
    ctx = EptsContext()
    for hint, raw in entries:
        ctx = ctx.extend(hint, _as_type(spec, f, ctx, raw)[0])
    return ctx
