"""Static analyses: stratification, rule shape checks, erasure to simple types.

Constants split into type-level and object-level ones, by whether a
constant's declared result type ends in TYPE.  On top of that
classification this module provides two rule analyses (does a
type-level rewrite rule preserve the simple-type erasure of its head?)
and the erasure itself: a forgetful map from framework types to simple
types and a structure-preserving map from framework terms to untyped
lambda terms that is strictly simulated by beta reduction.  The lambda
terms are plain data, outside the child map of :mod:`pimod.terms`:
:func:`erase_term` builds one, and :func:`stlc_check` reads it by class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import Diagnostic, NotErasable, UnknownConstant
from .terms import App, Cons, DkContext, DkTerm, Lam, NodeMemo, Pi, Theory, Type, Var


class ConstantLevel(Enum):
    TYPE_LEVEL = "type-level"
    OBJECT_LEVEL = "object-level"


def constant_level(theory: Theory, name: str) -> ConstantLevel:
    """A constant is type-level iff its result type is TYPE under products."""
    decl = theory.decl(name)
    if decl is None:
        raise UnknownConstant(f"constant '{name}' is not declared")
    t = decl.result
    while isinstance(t, Pi):
        t = t.cod
    return ConstantLevel.TYPE_LEVEL if isinstance(t, Type) else ConstantLevel.OBJECT_LEVEL


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


def render_simple(t: SimpleType) -> str:
    match t:
        case Star():
            return "*"
        case Arrow(d, c):
            left = render_simple(d)
            if isinstance(d, Arrow):
                left = f"({left})"
            return f"{left} -> {render_simple(c)}"
    raise AssertionError


class StlcTerm:
    __slots__ = ()


def _cached_hash(cls: type) -> type:
    """``cls``, a frozen dataclass, with a hash over the fields it compares,
    computed once per object.  Equality is unchanged; a set of erased
    terms no longer rehashes a whole term at every insertion."""
    key = attrgetter(*(f.name for f in fields(cls) if f.compare))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    return cls


@_cached_hash
@dataclass(frozen=True)
class SVar(StlcTerm):
    index: int


@_cached_hash
@dataclass(frozen=True)
class SConst(StlcTerm):
    name: str


@_cached_hash
@dataclass(frozen=True)
class SApp(StlcTerm):
    fn: StlcTerm
    arg: StlcTerm


@_cached_hash
@dataclass(frozen=True)
class SLam(StlcTerm):
    hint: str = field(compare=False)
    body: StlcTerm = field()


def mk_sapp(fn: StlcTerm, *args: StlcTerm) -> StlcTerm:
    for a in args:
        fn = SApp(fn, a)
    return fn


# --- the two erasures --------------------------------------------------------


def erase_type(theory: Theory, a: DkTerm) -> SimpleType:
    """Forget dependencies: products become arrows, family heads become *."""
    return _erase_type(theory, a, NodeMemo())


def _erase_type(theory: Theory, a: DkTerm, memo: NodeMemo) -> SimpleType:
    """``erase_type``, remembering the erasure of each node object in ``memo``."""
    out = memo.get(id(a))
    if out is not None:
        return out
    match a:
        case Type():
            out = STAR
        case Cons(c, _) if theory.decl(c) is not None and \
                constant_level(theory, c) is ConstantLevel.TYPE_LEVEL:
            out = STAR
        case Pi(_, dom, cod):
            out = Arrow(_erase_type(theory, dom, memo), _erase_type(theory, cod, memo))
        case App(f, _):
            out = _erase_type(theory, f, memo)
        case Lam(_, _, body):
            out = _erase_type(theory, body, memo)
        case _:
            raise NotErasable(f"no simple-type erasure for {a!r}")
    return memo.put(id(a), out, a)


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

    The erasure is built at its final depth, in time linear in the size
    of ``m``.  An abstraction puts two binders around its erased body
    (``_z``, then its own) and a product one, so ``Var(k)`` erases to
    ``SVar(k + l)``, where ``l`` counts the abstractions among the ``k``
    innermost binders around it.  The index map ``lams`` holds, for each
    prefix of the binders on the path from the root, the number of
    abstractions among them, which gives ``l`` in constant time.  The
    simple type of each product's domain is worked out once per node.
    """
    lams = [0]
    types = NodeMemo()

    def go(t: DkTerm) -> StlcTerm:
        cls = type(t)
        if cls is App:
            return SApp(go(t.fn), go(t.arg))
        if cls is Var:
            k = t.index
            depth = len(lams) - 1
            return SVar(k + lams[depth] - lams[max(depth - k, 0)])
        if cls is Cons:
            out: StlcTerm = SConst(t.name)
            for a in t.args:
                out = SApp(out, go(a))
            return out
        if cls is Lam:
            lams.append(lams[-1] + 1)
            eb = go(t.body)
            lams.pop()
            return SApp(SLam("_z", SLam(t.hint, eb)), go(t.ann))
        if cls is Pi:
            sigma = _erase_type(theory, t.dom, types)
            if pis is not None:
                pis.add(sigma)
            ed = go(t.dom)
            lams.append(lams[-1])
            ec = go(t.cod)
            lams.pop()
            return mk_sapp(SConst(pi_const_name(sigma)), ed, SLam(t.hint, ec))
        raise NotErasable(f"no term erasure for {t!r}")

    return go(m)


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


class _Untypable(Exception):
    """Raised inside ``stlc_check`` to abandon a judgment with no typing."""


_STAR = -2
_UNKNOWN = -1


def stlc_check(consts: Mapping[str, SimpleType], ctx: Sequence[SimpleType],
               m: StlcTerm, sigma: SimpleType) -> bool:
    """Is the judgment ``consts; ctx |- m : sigma`` derivable?

    The terms carry no annotations, so this solves for a typing rather
    than checking one: unification over simple types, which is complete
    here because simple typability is a first-order unification problem.
    ``ctx`` is ordered oldest first; variable 0 is the last entry.

    Unification runs on a union-find forest over type nodes (Martelli
    and Montanari, "An efficient unification algorithm", TOPLAS 1982).
    Node ``i`` is an arrow ``dom[i] -> cod[i]``, an unknown
    (``dom[i] == _UNKNOWN``) or, for ``i == 0`` only, ``*``; ``parent``
    links the nodes of one class to its representative, and every
    ``find`` compresses the path it walks.  Two arrow classes are merged
    before their parts are unified, from an explicit stack of pairs, so
    each merge happens once and a shared type is never compared twice.
    The occurs check is one pass at the end: a typing exists iff no
    class contains itself, i.e. the arrows between class representatives
    form no cycle.  The environment is one list, pushed and popped at
    each abstraction.
    """
    parent = [0]
    dom = [_STAR]
    cod = [_STAR]

    def new(d: int, c: int) -> int:
        i = len(parent)
        parent.append(i)
        dom.append(d)
        cod.append(c)
        return i

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def unify(a: int, b: int) -> None:
        todo: list[int] = []   # pairs still to unify, flattened
        while True:
            a, b = find(a), find(b)
            if a != b:
                if dom[a] == _UNKNOWN:
                    parent[a] = b
                elif dom[b] == _UNKNOWN:
                    parent[b] = a
                elif a == 0 or b == 0:
                    raise _Untypable
                else:
                    parent[a] = b
                    todo.append(cod[a])
                    todo.append(cod[b])
                    a, b = dom[a], dom[b]
                    continue
            if not todo:
                return
            b = todo.pop()
            a = todo.pop()

    def load(t: SimpleType) -> int:
        if isinstance(t, Arrow):
            return new(load(t.dom), load(t.cod))
        return 0

    const_nodes: dict[str, int] = {}

    def infer(t: StlcTerm) -> int:
        cls = type(t)
        if cls is SApp:
            tx = infer(t.arg)
            tf = find(infer(t.fn))
            if dom[tf] == _UNKNOWN:
                b = new(_UNKNOWN, _UNKNOWN)
                parent[tf] = new(tx, b)
                return b
            if tf == 0:
                raise _Untypable
            unify(dom[tf], tx)
            return cod[tf]
        if cls is SVar:
            k = t.index
            if not 0 <= k < len(env):
                raise _Untypable
            return env[-1 - k]
        if cls is SLam:
            a = new(_UNKNOWN, _UNKNOWN)
            env.append(a)
            r = infer(t.body)
            env.pop()
            return new(a, r)
        if cls is SConst:
            i = const_nodes.get(t.name)
            if i is None:
                ty = consts.get(t.name)
                if ty is None:
                    raise _Untypable
                i = const_nodes[t.name] = load(ty)
            return i
        raise _Untypable

    def acyclic() -> bool:
        state = [0] * len(parent)   # 0 unseen, 1 on the current path, 2 done
        for start in range(len(parent)):
            if state[start] or parent[start] != start:
                continue
            todo = [(start, False)]
            while todo:
                i, leaving = todo.pop()
                if leaving:
                    state[i] = 2
                elif not state[i]:
                    state[i] = 1
                    todo.append((i, True))
                    if dom[i] >= 0:
                        for j in (find(dom[i]), find(cod[i])):
                            if state[j] == 1:
                                return False
                            if not state[j]:
                                todo.append((j, False))
        return True

    env = [load(a) for a in ctx]
    try:
        unify(infer(m), load(sigma))
    except _Untypable:
        return False
    return acyclic()
