"""Static analyses: stratification, rule shape checks, erasure to simple types.

Well-typed terms split into kinds, type families and objects, directed
by whether a constant's declared result type ends in TYPE.  On top of
that classification this module provides two rule analyses (does a
type-level rewrite rule preserve the simple-type erasure of its head?)
and the erasure itself: a forgetful map from framework types to simple
types and a structure-preserving map from framework terms to untyped
lambda terms that is strictly simulated by beta reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import Diagnostic, NotErasable, UnknownConstant
from .terms import (
    App, Children, Cons, DkContext, DkTerm, Lam, Pi, Term, Theory, Type, Var,
    Variable, same_class, shift,
)


class ConstantLevel(Enum):
    TYPE_LEVEL = "type-level"
    OBJECT_LEVEL = "object-level"


class SyntacticClass(Enum):
    KIND = "kind"
    TYPE_FAMILY = "type-family"
    OBJECT = "object"
    UNCLASSIFIED = "unclassified"


def constant_level(theory: Theory, name: str) -> ConstantLevel:
    """A constant is type-level iff its result type is TYPE under products."""
    decl = theory.decl(name)
    if decl is None:
        raise UnknownConstant(f"constant '{name}' is not declared")
    t = decl.result
    while isinstance(t, Pi):
        t = t.cod
    return ConstantLevel.TYPE_LEVEL if isinstance(t, Type) else ConstantLevel.OBJECT_LEVEL


def _is_kind(theory: Theory, t: DkTerm) -> bool:
    match t:
        case Type():
            return True
        case Pi(_, dom, cod):
            return _is_tf(theory, dom) and _is_kind(theory, cod)
        case _:
            return False


def _is_tf(theory: Theory, t: DkTerm) -> bool:
    match t:
        case Cons(c, args):
            return (theory.decl(c) is not None
                    and constant_level(theory, c) is ConstantLevel.TYPE_LEVEL
                    and all(_is_obj(theory, a) for a in args))
        case App(f, a):
            return _is_tf(theory, f) and _is_obj(theory, a)
        case Lam(_, ann, body):
            return _is_tf(theory, ann) and _is_tf(theory, body)
        case Pi(_, dom, cod):
            return _is_tf(theory, dom) and _is_tf(theory, cod)
        case _:
            return False


def _is_obj(theory: Theory, t: DkTerm) -> bool:
    match t:
        case Var(_):
            return True
        case Cons(c, args):
            return (theory.decl(c) is not None
                    and constant_level(theory, c) is ConstantLevel.OBJECT_LEVEL
                    and all(_is_obj(theory, a) for a in args))
        case App(f, a):
            return _is_obj(theory, f) and _is_obj(theory, a)
        case Lam(_, ann, body):
            return _is_tf(theory, ann) and _is_obj(theory, body)
        case _:
            return False


def classify(theory: Theory, t: DkTerm) -> SyntacticClass:
    """Which stratum a raw term belongs to; never fails.

    The three grammars are mutually exclusive, so at most one matches;
    terms outside all of them (KIND, pattern variables, abstractions
    over kinds, ...) come back UNCLASSIFIED.
    """
    if _is_kind(theory, t):
        return SyntacticClass.KIND
    if _is_tf(theory, t):
        return SyntacticClass.TYPE_FAMILY
    if _is_obj(theory, t):
        return SyntacticClass.OBJECT
    return SyntacticClass.UNCLASSIFIED


# --- rule right-hand-side shape analyses ------------------------------------


def _offender(theory: Theory, t: DkTerm, products: bool) -> DkTerm | None:
    """First subterm breaking the rhs grammar, if any.

    The arity-preserving grammar: a spine of applications and
    abstractions over a type-level constant application; argument and
    annotation positions are unconstrained.  With ``products`` the
    grammar also admits products.
    """
    match t:
        case Cons(c, _) if theory.decl(c) is not None and \
                constant_level(theory, c) is ConstantLevel.TYPE_LEVEL:
            return None
        case App(f, _):
            return _offender(theory, f, products)
        case Lam(_, _, body):
            return _offender(theory, body, products)
        case Pi(_, dom, cod) if products:
            return _offender(theory, dom, products) or _offender(theory, cod, products)
        case _:
            return t


def _rule_shape_diagnostics(theory: Theory, products: bool, code: str) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for r in theory.rules:
        if theory.decl(r.head) is None:
            continue
        if constant_level(theory, r.head) is not ConstantLevel.TYPE_LEVEL:
            continue
        bad = _offender(theory, r.rhs, products)
        if bad is None:
            continue
        data: dict = {"offending": bad}
        lhs = Cons(r.head, r.lhs)
        try:
            data["lhs_erasure"] = render_simple(erase_type(theory, lhs))
            data["rhs_erasure"] = render_simple(erase_type(theory, r.rhs))
        except NotErasable:
            pass
        msg = f"right-hand side of type-level rule '{r.name}' leaves the allowed grammar"
        if "rhs_erasure" in data:
            msg += (f"; head erasure changes from {data['lhs_erasure']}"
                    f" to {data['rhs_erasure']}")
        out.append(Diagnostic(code, msg, r.name, data=data))
    return out


def check_arity_preserving(theory: Theory) -> list[Diagnostic]:
    """Type-level rules must rewrite to a type-level constant spine.

    This is the condition under which the simple-type erasure of a
    type family is stable under rewriting, which in turn funds the
    strong-normalization argument for beta on well-typed terms.
    """
    return _rule_shape_diagnostics(theory, False, "arity-violation")


def check_rules_well_formed(theory: Theory) -> list[Diagnostic]:
    """Weaker shape check admitting products on the right-hand side."""
    return _rule_shape_diagnostics(theory, True, "ill-formed-rule")


# --- simple types and untyped lambda terms ----------------------------------


class SimpleType:
    __slots__ = ()


@dataclass(frozen=True)
class Star(SimpleType):
    pass


@dataclass(frozen=True)
class Arrow(SimpleType):
    dom: SimpleType
    cod: SimpleType


STAR = Star()


@dataclass(frozen=True)
class TypeVar(SimpleType):
    """Unification variable; only alive inside ``stlc_check``."""

    id: int


def render_simple(t: SimpleType) -> str:
    match t:
        case Star():
            return "*"
        case Arrow(d, c):
            left = render_simple(d)
            if isinstance(d, Arrow):
                left = f"({left})"
            return f"{left} -> {render_simple(c)}"
        case TypeVar(i):
            return f"?{i}"
    raise AssertionError


class StlcTerm(Term):
    __slots__ = ()


@dataclass(frozen=True)
class SVar(StlcTerm, Variable):
    index: int


@dataclass(frozen=True)
class SConst(StlcTerm):
    name: str


@dataclass(frozen=True)
class SApp(StlcTerm):
    fn: StlcTerm
    arg: StlcTerm

    def children(self) -> Children:
        return ((self.fn, 0), (self.arg, 0))

    def with_children(self, kids: list[StlcTerm]) -> SApp:
        return SApp(kids[0], kids[1])

    same_node = same_class


@dataclass(frozen=True)
class SLam(StlcTerm):
    hint: str = field(compare=False)
    body: StlcTerm = field()

    def children(self) -> Children:
        return ((self.body, 1),)

    def with_children(self, kids: list[StlcTerm]) -> SLam:
        return SLam(self.hint, kids[0])

    same_node = same_class


def mk_sapp(fn: StlcTerm, *args: StlcTerm) -> StlcTerm:
    for a in args:
        fn = SApp(fn, a)
    return fn


# --- the two erasures --------------------------------------------------------


def erase_type(theory: Theory, a: DkTerm) -> SimpleType:
    """Forget dependencies: products become arrows, family heads become *."""
    match a:
        case Type():
            return STAR
        case Cons(c, _) if theory.decl(c) is not None and \
                constant_level(theory, c) is ConstantLevel.TYPE_LEVEL:
            return STAR
        case Pi(_, dom, cod):
            return Arrow(erase_type(theory, dom), erase_type(theory, cod))
        case App(f, _):
            return erase_type(theory, f)
        case Lam(_, _, body):
            return erase_type(theory, body)
        case _:
            raise NotErasable(f"no simple-type erasure for {a!r}")


def pi_const_name(sigma: SimpleType) -> str:
    return f"pi{render_simple(sigma)}"


def pi_const_type(sigma: SimpleType) -> SimpleType:
    """Type of the product combinator at domain erasure ``sigma``."""
    return Arrow(STAR, Arrow(Arrow(sigma, STAR), STAR))


def erase_term(theory: Theory, m: DkTerm,
               pis: set[SimpleType] | None = None) -> StlcTerm:
    """Erase a term to an untyped lambda term, keeping all redexes alive.

    Binder annotations are not dropped: an abstraction becomes a redex
    applying a vacuous extra binder to the erased annotation, and a
    product applies a combinator (one per domain erasure, recorded in
    ``pis`` when given) to its erased pieces.  The result is
    deterministic, and one beta step on ``m`` always maps to at least
    one beta step on the erasure.
    """
    match m:
        case Var(k):
            return SVar(k)
        case Cons(c, args):
            return mk_sapp(SConst(c), *(erase_term(theory, a, pis) for a in args))
        case App(f, a):
            return SApp(erase_term(theory, f, pis), erase_term(theory, a, pis))
        case Lam(h, ann, body):
            eb = erase_term(theory, body, pis)
            return SApp(SLam("_z", SLam(h, shift(eb, 1, 1))),
                        erase_term(theory, ann, pis))
        case Pi(h, dom, cod):
            sigma = erase_type(theory, dom)
            if pis is not None:
                pis.add(sigma)
            return mk_sapp(SConst(pi_const_name(sigma)),
                           erase_term(theory, dom, pis),
                           SLam(h, erase_term(theory, cod, pis)))
        case _:
            raise NotErasable(f"no term erasure for {m!r}")


def erase_signature(theory: Theory) -> dict[str, SimpleType]:
    """Simple types for every declaration whose type erases.

    ``c[x1:A1; ...; xn:An] : A`` becomes ``c : |A1| -> ... -> |An| -> |A|``;
    declarations with non-erasable pieces are skipped.
    """
    out: dict[str, SimpleType] = {}
    for d in theory.signature:
        try:
            ty = erase_type(theory, d.result)
            for _, a in reversed(d.telescope):
                ty = Arrow(erase_type(theory, a), ty)
            out[d.name] = ty
        except NotErasable:
            continue
    return out


def erase_context(theory: Theory, ctx: DkContext) -> list[SimpleType]:
    """Pointwise type erasure of a framework context (oldest first)."""
    return [erase_type(theory, ty) for _, ty in ctx.entries]


def pi_context(sigmas: Iterable[SimpleType]) -> dict[str, SimpleType]:
    """The product combinators required by a set of domain erasures."""
    return {pi_const_name(s): pi_const_type(s) for s in sigmas}


# --- simply-typed checking ----------------------------------------------------


def stlc_check(consts: Mapping[str, SimpleType], ctx: Sequence[SimpleType],
               m: StlcTerm, sigma: SimpleType) -> bool:
    """Is the judgment ``consts; ctx |- m : sigma`` derivable?

    The terms carry no annotations, so this solves for a typing rather
    than checking one: unification over simple types, which is complete
    here because simple typability is a first-order unification problem.
    ``ctx`` is ordered oldest first; variable 0 is the last entry.
    """
    fresh = itertools.count()
    sub: dict[int, SimpleType] = {}

    def resolve(t: SimpleType) -> SimpleType:
        while isinstance(t, TypeVar) and t.id in sub:
            t = sub[t.id]
        return t

    def occurs(v: int, t: SimpleType) -> bool:
        t = resolve(t)
        if isinstance(t, TypeVar):
            return t.id == v
        if isinstance(t, Arrow):
            return occurs(v, t.dom) or occurs(v, t.cod)
        return False

    def unify(a: SimpleType, b: SimpleType) -> bool:
        a, b = resolve(a), resolve(b)
        if a == b:
            return True
        if isinstance(a, TypeVar):
            if occurs(a.id, b):
                return False
            sub[a.id] = b
            return True
        if isinstance(b, TypeVar):
            return unify(b, a)
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            return unify(a.dom, b.dom) and unify(a.cod, b.cod)
        return False

    def infer(env: list[SimpleType], t: StlcTerm) -> SimpleType | None:
        match t:
            case SVar(k):
                if not 0 <= k < len(env):
                    return None
                return env[len(env) - 1 - k]
            case SConst(name):
                return consts.get(name)
            case SLam(_, body):
                a: SimpleType = TypeVar(next(fresh))
                r = infer(env + [a], body)
                return None if r is None else Arrow(a, r)
            case SApp(f, x):
                tf = infer(env, f)
                tx = infer(env, x)
                if tf is None or tx is None:
                    return None
                b: SimpleType = TypeVar(next(fresh))
                return b if unify(tf, Arrow(tx, b)) else None
        return None

    got = infer(list(ctx), m)
    return got is not None and unify(got, sigma)
