"""Hand-written de Bruijn operations, kept as the reference that the
operations derived from the one child map are compared against.

Each function is a direct recursion over the constructors of one term
language (framework terms, which implicit PTS terms are, and annotated
PTS terms), independent of the child map that ``pimod.terms`` derives
these operations from.  ``stlc_shift`` shifts the erased lambda terms
of ``pimod.analysis``, which are outside the child map, for the erasure
below and the simply-typed evaluator of the tests.  Substitution here
re-shifts the value at every binder it crosses, a second route to the
result the library reaches by shifting once at the leaves.

``check_orthogonal`` and its helpers are the overlap checker that tried
every ordered pair of rules, renaming both apart for each pair, and
unified every pattern position with every rule.  It keys root overlaps
by rule name, so it is a reference only for theories whose rule names
are unique.

``translate`` and ``invert`` are the translation and its inverse as
they were before both called ``EncodingTheory.family``/``split``
directly: ``translate`` through one wrapper per family (``mk_U`` to
``mk_app``, free functions here), and ``invert`` through ``recognize``,
which packed the root into an ``InvertibleForm`` that ``invert`` then
took apart.  Like the library's, it reads images only: a redex is not
invertible.  It walks a shared term as a tree and builds a fresh one,
so it is also the tree-walk inversion of ``conservative_invert`` below.

``translate_sharing_source`` is the translation as it was before it
interned the nodes it builds: it shares an image node only where
elaboration shares the source node, and an ``El`` annotation at one
sort over one domain image.  It is copied as it was.

``whnf``, ``_match_whnf``, ``kernel_infer``, ``kernel_check``,
``check_context`` and ``check_signature`` are the framework's weak-head
normalizer and type checker as they were before they ran on closures:
they rebuild terms, substituting each argument into a constant's
telescope, weakening each context entry on lookup and contracting each
redex by substitution, and they type every occurrence of a shared
subterm anew.  They use the library's ``subst`` and ``subst_many``, the
hand-written ``instantiate`` above and the hand-written ``convertible``
below.

``erase_term`` and ``stlc_check`` are the erasure witness as it was
before it read the erased term off the framework term: ``erase_term``
builds the untyped lambda term (``StlcTerm``) as it built it then, and
``stlc_check`` types one as it did before it ran in linear time, by
substitution, with a recursive occurs check at every binding and a copy
of the environment at every abstraction.  The simulation tests and the
acceptance gate reduce these built terms.

``_elab`` is elaboration as it was before it read types off the terms
it builds: it re-infers, checking every premise again, each domain, the
body of every abstraction and both parts of every application from the
explicit term it has just built, with the source checker at the end of
this module.

``_redexes``, ``step``, ``epts_redex``, ``epts_step`` and ``epts_reduce``
are the framework's and the source language's own redex searches and
trace loop, from before both ran on ``pimod.rewrite``'s one engine.
They are copied as they were, except that they substitute with the
hand-written ``subst``, ``instantiate`` and ``epts_subst`` above.

``convertible``, ``epts_convertible`` and ``hidden_equiv`` descend
through congruences with one hand-written case per constructor, and
``build_phi`` lays out the target of each constant family with one case
per role; the library derives the first three from the child map and
the last from ``EncodingTheory.family``.

``lex`` and ``Token`` are the lexer as it was before it became one
compiled pattern: a loop over characters that matches identifiers with
a regex of their own and tries each punctuation mark in turn.  They are
copied as they were.

The framework and source term parsers (``_dk_term``, ``_pts_term`` and
their helpers) are one recursive descent per scope, and the two term
printers (``_r_dk``, with the occurrence check ``_dk_uses``, and
``_r_epts``) one printer per term language; ``pimod.syntax`` derives all
of them from one grammar and one printer.  Implicit source terms are
framework terms, so ``_r_dk`` prints them too.  ``parse_dk_term``,
``parse_pts_term`` and ``render`` run them the way the library's entry
points do.

The last section keeps the stages of ``conservative_invert`` after the
kernel check as they were before they visited each distinct node object
once: the redex search ``redexes`` (with ``normalize`` and ``reducts``
on top of it), ``tree_hidden_equiv`` and the source checker
(``_e_infer``, ``_e_check``, ``_product``, ``epts_infer``,
``epts_check``, ``sort_of_type``).  They walk a shared term as a tree:
``tree_hidden_equiv`` converts every occurrence of an annotation pair,
and the checker types every occurrence of a shared subterm anew.  They
are copied as they were.  ``conservative_invert`` runs them, with
``invert`` above, the way the library's does, with the library's
kernel, translation and translation of the context and type.

``apply_morphism`` and ``verify_morphism`` are morphism verification as
it was before one call shared one kernel state and one image table:
``apply_morphism`` rebuilds every node of every image anew, and
``verify_morphism`` checks each constant's telescope image and body in
fresh kernel calls of their own.  They are copied as they were.

``sort_value`` is ``SortSpec._value`` as it was before the sort table:
a finite spec reads its tables, and an internalized one normalizes
``Ax(s)`` or ``Ru(s1, s2)`` with the first rule that matches and names
the value by a scan of ``named``.
"""

import itertools
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Iterator, Sequence

from pimod.analysis import Arrow, SimpleType, erase_type, pi_const_name
from pimod import encode, kernel, rewrite
from pimod.encode import EncodingTheory
from pimod.epts import (EApp, ELam, EPi, EptsContext, ESort, EptsTerm, EVar,
                        FiniteSortSpec, PApp, PLam, PPi, PSort, PtsTerm, PVar, SortSpec, _expect,
                        _head_type, _require_rule, _sort_of, epts_whnf)
from pimod import terms as lib
from pimod.errors import (ArityMismatch, Diagnostic, EptsCheckFailed, InternalSoundnessError,
                          KindHasNoType, MissingBody, NotAProduct, NotErasable, NotInvertible,
                          ParseError, PimodError, Span, TypeMismatch,
                          UnboundVariable, UnknownConstant, UnknownSort,
                          UnrepresentableSort)
from pimod.morphism import TheoryMorphism, _rule_verdict
from pimod.rewrite import BETA, Fuel, OrthogonalityReport, match_pattern
from pimod.syntax import KEYWORDS, _fresh, _Parser, _var_name
from pimod.terms import (KIND, TYPE, App, Cons, DkContext, DkTerm, Kind, Lam, Meta,
                         Pi, RewriteRule, Theory, Type, Var, map_leaves, subterms)


def shift(t: DkTerm, by: int, cutoff: int = 0) -> DkTerm:
    """Add ``by`` to every variable index at or above ``cutoff``."""
    if by == 0:
        return t
    match t:
        case Var(k):
            return Var(k + by) if k >= cutoff else t
        case Cons(c, args):
            return Cons(c, tuple(shift(a, by, cutoff) for a in args))
        case App(f, a):
            return App(shift(f, by, cutoff), shift(a, by, cutoff))
        case Lam(h, ann, body):
            return Lam(h, shift(ann, by, cutoff), shift(body, by, cutoff + 1))
        case Pi(h, dom, cod):
            return Pi(h, shift(dom, by, cutoff), shift(cod, by, cutoff + 1))
        case _:
            return t


def subst(t: DkTerm, j: int, value: DkTerm) -> DkTerm:
    """Capture-avoiding substitution of ``value`` for variable ``j``.

    ``value`` lives at the depth of ``t``'s root; variables above ``j``
    are decremented, so contracting a redex is ``subst(body, 0, arg)``.
    """
    match t:
        case Var(k):
            if k == j:
                return value
            return Var(k - 1) if k > j else t
        case Cons(c, args):
            return Cons(c, tuple(subst(a, j, value) for a in args))
        case App(f, a):
            return App(subst(f, j, value), subst(a, j, value))
        case Lam(h, ann, body):
            return Lam(h, subst(ann, j, value), subst(body, j + 1, shift(value, 1)))
        case Pi(h, dom, cod):
            return Pi(h, subst(dom, j, value), subst(cod, j + 1, shift(value, 1)))
        case _:
            return t


def subst_many(t: DkTerm, values: tuple[DkTerm, ...], depth: int = 0) -> DkTerm:
    """Simultaneously substitute ``values[i]`` for variable ``depth + i``.

    Indices beyond the substituted block are decremented by
    ``len(values)``; the values themselves are weakened by ``depth`` as
    binders are crossed.
    """
    n = len(values)
    if n == 0:
        return t
    match t:
        case Var(k):
            if k < depth:
                return t
            if k - depth < n:
                return shift(values[k - depth], depth)
            return Var(k - n)
        case Cons(c, args):
            return Cons(c, tuple(subst_many(a, values, depth) for a in args))
        case App(f, a):
            return App(subst_many(f, values, depth), subst_many(a, values, depth))
        case Lam(h, ann, body):
            return Lam(h, subst_many(ann, values, depth), subst_many(body, values, depth + 1))
        case Pi(h, dom, cod):
            return Pi(h, subst_many(dom, values, depth), subst_many(cod, values, depth + 1))
        case _:
            return t


def arrow(dom: DkTerm, cod: DkTerm) -> Pi:
    """Non-dependent product; the codomain is weakened under the binder."""
    return Pi("_", dom, shift(cod, 1))


def instantiate(t: DkTerm, env: dict[str, DkTerm], depth: int = 0) -> DkTerm:
    """Replace pattern variables by the terms a match bound them to."""
    match t:
        case Meta(n):
            return shift(env[n], depth) if n in env else t
        case Cons(c, args):
            return Cons(c, tuple(instantiate(a, env, depth) for a in args))
        case App(f, a):
            return App(instantiate(f, env, depth), instantiate(a, env, depth))
        case Lam(h, ann, body):
            return Lam(h, instantiate(ann, env, depth), instantiate(body, env, depth + 1))
        case Pi(h, dom, cod):
            return Pi(h, instantiate(dom, env, depth), instantiate(cod, env, depth + 1))
        case _:
            return t


def epts_shift(t: EptsTerm, by: int, cutoff: int = 0) -> EptsTerm:
    match t:
        case EVar(k):
            return EVar(k + by) if k >= cutoff else t
        case ESort(_):
            return t
        case EPi(s1, s2, dom, h, cod):
            return EPi(s1, s2, epts_shift(dom, by, cutoff), h,
                       epts_shift(cod, by, cutoff + 1))
        case ELam(s1, s2, dom, h, cod, body):
            return ELam(s1, s2, epts_shift(dom, by, cutoff), h,
                        epts_shift(cod, by, cutoff + 1),
                        epts_shift(body, by, cutoff + 1))
        case EApp(s1, s2, dom, h, cod, fn, arg):
            return EApp(s1, s2, epts_shift(dom, by, cutoff), h,
                        epts_shift(cod, by, cutoff + 1),
                        epts_shift(fn, by, cutoff),
                        epts_shift(arg, by, cutoff))
    raise AssertionError(f"not an EPTS term: {t!r}")


def epts_subst(t: EptsTerm, j: int, value: EptsTerm) -> EptsTerm:
    match t:
        case EVar(k):
            if k == j:
                return value
            return EVar(k - 1) if k > j else t
        case ESort(_):
            return t
        case EPi(s1, s2, dom, h, cod):
            return EPi(s1, s2, epts_subst(dom, j, value), h,
                       epts_subst(cod, j + 1, epts_shift(value, 1)))
        case ELam(s1, s2, dom, h, cod, body):
            up = epts_shift(value, 1)
            return ELam(s1, s2, epts_subst(dom, j, value), h,
                        epts_subst(cod, j + 1, up),
                        epts_subst(body, j + 1, up))
        case EApp(s1, s2, dom, h, cod, fn, arg):
            return EApp(s1, s2, epts_subst(dom, j, value), h,
                        epts_subst(cod, j + 1, epts_shift(value, 1)),
                        epts_subst(fn, j, value),
                        epts_subst(arg, j, value))
    raise AssertionError(f"not an EPTS term: {t!r}")


def _rename_metas(t: DkTerm, suffix: str) -> DkTerm:
    return map_leaves(t, lambda u, _: Meta(u.name + suffix) if isinstance(u, Meta) else u)


def _apply_sub(t: DkTerm, sub: dict[str, DkTerm]) -> DkTerm:
    def leaf(u: DkTerm, _: int) -> DkTerm:
        if isinstance(u, Meta) and u.name in sub:
            return _apply_sub(sub[u.name], sub)
        return u
    return map_leaves(t, leaf)


def _occurs(n: str, t: DkTerm, sub: dict[str, DkTerm]) -> bool:
    match t:
        case Meta(m):
            if m == n:
                return True
            return m in sub and _occurs(n, sub[m], sub)
        case Cons(_, args):
            return any(_occurs(n, a, sub) for a in args)
        case _:
            return False


def _unify(a: DkTerm, b: DkTerm, sub: dict[str, DkTerm]) -> bool:
    a = _apply_sub(a, sub)
    b = _apply_sub(b, sub)
    if a == b:
        return True
    match (a, b):
        case (Meta(n), _):
            if _occurs(n, b, sub):
                return False
            sub[n] = b
            return True
        case (_, Meta(n)):
            if _occurs(n, a, sub):
                return False
            sub[n] = a
            return True
        case (Cons(c1, x1), Cons(c2, x2)):
            return c1 == c2 and len(x1) == len(x2) and all(_unify(p, q, sub) for p, q in zip(x1, x2))
        case _:
            return False


def _pattern_positions(t: DkTerm, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], DkTerm]]:
    """Non-variable positions of a pattern term."""
    out: list[tuple[tuple[int, ...], DkTerm]] = []
    if isinstance(t, Cons):
        out.append((path, t))
        for i, a in enumerate(t.args):
            out.extend(_pattern_positions(a, path + (i,)))
    return out


def _replace_at(t: DkTerm, path: tuple[int, ...], new: DkTerm) -> DkTerm:
    if not path:
        return new
    assert isinstance(t, Cons)
    i = path[0]
    return Cons(t.name, t.args[:i] + (_replace_at(t.args[i], path[1:], new),) + t.args[i + 1:])


def check_orthogonal(theory: Theory) -> OrthogonalityReport:
    """Left-linearity plus critical-pair analysis of the theory's rules.

    Self-overlaps are considered at proper subterm positions only; a
    rule trivially unifies with itself at the root.
    """
    report = OrthogonalityReport()
    for r in theory.rules:
        seen: set[str] = set()

        def walk(t: DkTerm) -> None:
            match t:
                case Meta(n):
                    if n in seen:
                        report.problems.append(Diagnostic(
                            "non-left-linear",
                            f"pattern variable '{n}' occurs twice on the left-hand side",
                            r.name))
                    seen.add(n)
                case Cons(_, args):
                    for a in args:
                        walk(a)
        for p in r.lhs:
            walk(p)

    rules = list(theory.rules)
    seen_root_pairs: set[tuple[str, str]] = set()
    for i, r1 in enumerate(rules):
        lhs1 = Cons(r1.head, tuple(_rename_metas(p, "#1") for p in r1.lhs))
        rhs1 = _rename_metas(r1.rhs, "#1")
        for j, r2 in enumerate(rules):
            lhs2 = Cons(r2.head, tuple(_rename_metas(p, "#2") for p in r2.lhs))
            rhs2 = _rename_metas(r2.rhs, "#2")
            for path, sub_t in _pattern_positions(lhs1):
                if i == j and path == ():
                    continue
                if path == ():
                    key = (min(r1.name, r2.name), max(r1.name, r2.name))
                    if key in seen_root_pairs:
                        continue
                sub: dict[str, DkTerm] = {}
                if not _unify(sub_t, lhs2, sub):
                    continue
                if path == ():
                    seen_root_pairs.add((min(r1.name, r2.name), max(r1.name, r2.name)))
                peak = _apply_sub(lhs1, sub)
                red_outer = _apply_sub(rhs1, sub)
                red_inner = _apply_sub(_replace_at(lhs1, path, rhs2), sub)
                diag = Diagnostic(
                    "overlap",
                    f"rule '{r2.name}' overlaps '{r1.name}' at position {list(path)}",
                    r1.name,
                    data={"peak": peak, "left": red_outer, "right": red_inner},
                )
                if red_outer == red_inner:
                    diag.severity = "note"
                    diag.message += " (critical pair is trivial)"
                    report.notes.append(diag)
                else:
                    report.problems.append(diag)
    return report


def _match_rule(rule: RewriteRule, args: tuple[DkTerm, ...]) -> dict[str, DkTerm] | None:
    env: dict[str, DkTerm] = {}
    if len(args) != len(rule.lhs):
        return None
    for p, a in zip(rule.lhs, args):
        if not match_pattern(p, a, env):
            return None
    return env


def _redexes(theory: Theory, t: DkTerm,
             labels: frozenset[str] | None) -> Iterator[tuple[tuple[int, ...], str, DkTerm]]:
    """Lazily, every one-step reduct of ``t`` whose label lies in ``labels``
    (all if None), leftmost-outermost first, as (position, label, reduct).

    Positions are child-index paths in the order ``children()`` lists them.
    """
    match t:
        case App(Lam(_, _, body), arg):
            if labels is None or BETA in labels:
                yield (), BETA, subst(body, 0, arg)
        case Cons(c, args):
            for rule in theory.rules_for(c):
                if labels is None or rule.name in labels:
                    env = _match_rule(rule, args)
                    if env is not None:
                        yield (), rule.name, instantiate(rule.rhs, env)
    kids = [k for k, _ in t.children()]
    for i, k in enumerate(kids):
        for path, label, red in _redexes(theory, k, labels):
            yield (i, *path), label, t.with_children(kids[:i] + [red] + kids[i + 1:])


def step(theory: Theory, t: DkTerm, labels: frozenset[str] | set[str] | None = None) -> tuple[DkTerm, str] | None:
    """One leftmost-outermost step whose label lies in ``labels`` (all if None).

    Returns the contracted term and the step's label, or None when no
    such redex exists.
    """
    if labels is not None and not isinstance(labels, frozenset):
        labels = frozenset(labels)
    r = next(_redexes(theory, t, labels), None)
    return None if r is None else (r[2], r[1])


def epts_redex(spec: SortSpec, t: EptsTerm) -> tuple[EptsTerm, tuple[str, str]] | None:
    """The leftmost-outermost linearized beta step with the sort pair of its
    redex, or None at a normal form.

    The redex search visits the root first and then the annotation and
    subject components in declaration order (domain, codomain, function
    part, argument); this must stay aligned with the argument order of
    the framework image of an application, because adequacy statements
    compare reduction traces position by position.
    """
    match t:
        case EApp(s1, s2, _, _, _, ELam(t1, t2, _, _, _, body), arg) \
                if s1 == t1 and s2 == t2 and spec.rule_defined(s1, s2):
            return epts_subst(body, 0, arg), (s1, s2)
    kids = [k for k, _ in t.children()]
    for i, k in enumerate(kids):
        r = epts_redex(spec, k)
        if r is not None:
            return t.with_children(kids[:i] + [r[0]] + kids[i + 1:]), r[1]
    return None


def epts_step(spec: SortSpec, t: EptsTerm) -> EptsTerm | None:
    """One leftmost-outermost linearized beta step, or None at a normal form."""
    r = epts_redex(spec, t)
    return None if r is None else r[0]


def epts_reduce(spec: SortSpec, t: EptsTerm,
                fuel: int | Fuel | None = None) -> tuple[EptsTerm, list[EptsTerm]]:
    """Normalize, returning the normal form and all intermediate terms."""
    f = Fuel.of(fuel)
    trail: list[EptsTerm] = []
    while True:
        s = epts_step(spec, t)
        if s is None:
            return t, trail
        f.tick()
        t = s
        trail.append(t)


def convertible(theory: Theory, a: DkTerm, b: DkTerm, fuel: int | Fuel | None = None) -> bool:
    """Do ``a`` and ``b`` have a common reduct?

    Decided by weak-head reduction and congruence descent; complete for
    confluent theories, which is the setting the rest of the toolkit
    establishes before relying on it.
    """
    f = Fuel.of(fuel)

    def go(x: DkTerm, y: DkTerm) -> bool:
        x = whnf(theory, x, f)
        y = whnf(theory, y, f)
        if x == y:
            return True
        match (x, y):
            case (App(f1, a1), App(f2, a2)):
                return go(f1, f2) and go(a1, a2)
            case (Cons(c1, x1), Cons(c2, x2)):
                return c1 == c2 and len(x1) == len(x2) and all(go(p, q) for p, q in zip(x1, x2))
            case (Lam(_, t1, b1), Lam(_, t2, b2)):
                return go(t1, t2) and go(b1, b2)
            case (Pi(_, d1, c1), Pi(_, d2, c2)):
                return go(d1, d2) and go(c1, c2)
            case _:
                return False

    return go(a, b)


def epts_convertible(spec: SortSpec, a: EptsTerm, b: EptsTerm,
                     fuel: int | Fuel | None = None) -> bool:
    f = Fuel.of(fuel)

    def go(x: EptsTerm, y: EptsTerm) -> bool:
        x = epts_whnf(spec, x, f)
        y = epts_whnf(spec, y, f)
        if x == y:
            return True
        match x, y:
            case (EPi(s1, s2, d1, _, c1), EPi(t1, t2, d2, _, c2)):
                return s1 == t1 and s2 == t2 and go(d1, d2) and go(c1, c2)
            case (ELam(s1, s2, d1, _, c1, b1), ELam(t1, t2, d2, _, c2, b2)):
                return (s1, s2) == (t1, t2) and go(d1, d2) and go(c1, c2) and go(b1, b2)
            case (EApp(s1, s2, d1, _, c1, f1, a1), EApp(t1, t2, d2, _, c2, f2, a2)):
                return ((s1, s2) == (t1, t2) and go(d1, d2) and go(c1, c2)
                        and go(f1, f2) and go(a1, a2))
            case _:
                return False

    return go(a, b)


def hidden_equiv(enc: EncodingTheory, a: DkTerm, b: DkTerm,
                 fuel: int | Fuel | None = None) -> bool:
    """Equality up to conversion inside abstraction annotations only.

    The plain skeletons must agree on the nose; the collected pairs of
    binder annotations merely have to be convertible.  This is the
    precise sense in which annotations are hidden: rewriting can change
    them, but it cannot change what the term says.
    """
    pairs: list[tuple[DkTerm, DkTerm]] = []

    def zip_(x: DkTerm, y: DkTerm) -> bool:
        match x, y:
            case (Lam(_, ann1, b1), Lam(_, ann2, b2)):
                pairs.append((ann1, ann2))
                return zip_(b1, b2)
            case (Cons(c, xs), Cons(d, ys)):
                return c == d and len(xs) == len(ys) and \
                    all(zip_(p, q) for p, q in zip(xs, ys))
            case (App(f1, a1), App(f2, a2)):
                return zip_(f1, f2) and zip_(a1, a2)
            case (Pi(_, d1, c1), Pi(_, d2, c2)):
                return zip_(d1, d2) and zip_(c1, c2)
            case _:
                return x == y

    if not zip_(a, b):
        return False
    f = Fuel.of(fuel)
    return all(convertible(enc.theory, p, q, f) for p, q in pairs)


def build_phi(src: EncodingTheory, dst: EncodingTheory) -> TheoryMorphism:
    """The canonical morphism from a finite encoding into an internalized one.

    Each sort-indexed constant family is sent to the corresponding
    uniform constant applied to the internal representation of its
    sorts; the payload arguments pass through unchanged.  Fails with
    :class:`UnrepresentableSort` when the target gives no name to a
    sort the source mentions.
    """
    if src.mode != "finite" or dst.mode != "internalized":
        raise PimodError(
            "expected a finite encoding as source and an internalized one "
            "as target", source=src.mode, target=dst.mode)
    body: dict[str, DkTerm] = {}
    for d in src.theory.signature:
        role = src.role_of(d.name)
        if role is None:
            raise PimodError(f"constant '{d.name}' has no recorded role")
        tag, sorts = role[0], role[1:]
        try:
            st = tuple(dst.spec.sort_term(s) for s in sorts)
        except UnknownSort as e:
            raise UnrepresentableSort(
                f"the target internalization has no term for a sort used "
                f"by '{d.name}'", constant=d.name) from e
        match tag:
            case "U":
                body[d.name] = Cons("U", st)
            case "El":
                body[d.name] = Cons("El", st + (Var(0),))
            case "u":
                body[d.name] = Cons("u", st)
            case "Prod":
                body[d.name] = Cons("Prod", st + (Var(1), Var(0)))
            case "abs":
                body[d.name] = Cons("abs", st + (Var(2), Var(1), Var(0)))
            case "app":
                body[d.name] = Cons("app", st + (Var(3), Var(2), Var(1), Var(0)))
            case _:
                raise PimodError(f"unexpected role '{tag}' for '{d.name}'")
    return TheoryMorphism(src.theory, dst.theory, body)


# --- the translation and its inverse, through the old wrappers -----------


def mk_U(enc: EncodingTheory, s: str) -> DkTerm:
    return enc.family("U", (s,), ())


def mk_El(enc: EncodingTheory, s: str, a: DkTerm) -> DkTerm:
    return enc.family("El", (s,), (a,))


def mk_u(enc: EncodingTheory, s: str) -> DkTerm:
    return enc.family("u", (s,), ())


def mk_prod(enc: EncodingTheory, s1: str, s2: str, a: DkTerm, b: DkTerm) -> DkTerm:
    return enc.family("Prod", (s1, s2), (a, b))


def mk_abs(enc: EncodingTheory, s1: str, s2: str, a: DkTerm, b: DkTerm,
           m: DkTerm) -> DkTerm:
    return enc.family("abs", (s1, s2), (a, b, m))


def mk_app(enc: EncodingTheory, s1: str, s2: str, a: DkTerm, b: DkTerm,
           m: DkTerm, n: DkTerm) -> DkTerm:
    return enc.family("app", (s1, s2), (a, b, m, n))


def translate(enc: EncodingTheory, m: EptsTerm) -> DkTerm:
    """Image of an explicitly annotated term in the generated theory."""
    match m:
        case EVar(k):
            return Var(k)
        case ESort(s):
            return mk_u(enc, s)
        case EPi(s1, s2, dom, h, cod):
            da = translate(enc, dom)
            return mk_prod(enc, s1, s2, da,
                           Lam(h, mk_El(enc, s1, da), translate(enc, cod)))
        case ELam(s1, s2, dom, h, cod, body):
            da = translate(enc, dom)
            ann = mk_El(enc, s1, da)
            return mk_abs(enc, s1, s2, da,
                          Lam(h, ann, translate(enc, cod)),
                          Lam(h, ann, translate(enc, body)))
        case EApp(s1, s2, dom, h, cod, fn, arg):
            da = translate(enc, dom)
            return mk_app(enc, s1, s2, da,
                          Lam(h, mk_El(enc, s1, da), translate(enc, cod)),
                          translate(enc, fn), translate(enc, arg))
    raise PimodError(f"cannot translate {m!r}")



def translate_sharing_source(enc: EncodingTheory, m: EptsTerm) -> DkTerm:
    """Image of an explicitly annotated term that shares what elaboration
    shares: a source node object that occurs twice has one image object,
    and so has the ``El`` annotation at one sort over one domain image."""
    return _SourceSharingTranslation(enc).term(m)


class _SourceSharingTranslation:
    """One call's translation, with its memo tables: images by source node
    object and ``El`` annotations by (sort, domain image object)."""

    __slots__ = ("enc", "images", "anns")

    def __init__(self, enc: EncodingTheory):
        self.enc = enc
        self.images = lib.NodeMemo()
        self.anns = lib.NodeMemo()

    def term(self, m: EptsTerm) -> DkTerm:
        img = self.images.get(id(m))
        if img is None:
            img = self.images.put(id(m), self._image(m), m)
        return img

    def el(self, s: str, a: EptsTerm) -> DkTerm:
        """``El`` at ``s`` of the image of the type ``a``."""
        da = self.term(a)
        key = (s, id(da))
        ann = self.anns.get(key)
        if ann is None:
            ann = self.anns.put(key, self.enc.family("El", (s,), (da,)), da)
        return ann

    def _image(self, m: EptsTerm) -> DkTerm:
        enc = self.enc
        match m:
            case EVar(k):
                return Var(k)
            case ESort(s):
                return enc.family("u", (s,), ())
            case EPi(s1, s2, dom, h, cod):
                ann = self.el(s1, dom)
                return enc.family("Prod", (s1, s2), (self.term(dom), Lam(h, ann, self.term(cod))))
            case ELam(s1, s2, dom, h, cod, body):
                ann = self.el(s1, dom)
                return enc.family("abs", (s1, s2), (self.term(dom), Lam(h, ann, self.term(cod)),
                                                    Lam(h, ann, self.term(body))))
            case EApp(s1, s2, dom, h, cod, fn, arg):
                ann = self.el(s1, dom)
                return enc.family("app", (s1, s2), (self.term(dom), Lam(h, ann, self.term(cod)),
                                                    self.term(fn), self.term(arg)))
        raise PimodError(f"cannot translate {m!r}")

@dataclass(frozen=True)
class InvertibleForm:
    """A framework term seen through the grammar of translation images.

    ``tag`` is one of ``var``, ``sort``, ``prod``, ``abs`` and ``app``;
    ``parts`` holds the subject subterms of the form (binder
    annotations are not among them — they are derivable, hence hidden).
    """

    tag: str
    sorts: tuple[str, ...]
    parts: tuple


def recognize(enc: EncodingTheory, t: DkTerm) -> InvertibleForm | None:
    """Match ``t`` against one production of the invertible grammar.

    Only the root is inspected (apart from resolving sort arguments),
    so a positive answer does not mean the whole term inverts.
    """
    match t:
        case Var(k):
            return InvertibleForm("var", (), (k,))
        case Cons(name, args):
            split = enc.split(name, args)
            if split is None:
                return None
            role, sorts, payload = split
            match role, payload:
                case "u", ():
                    return InvertibleForm("sort", sorts, ())
                case "Prod", (a, Lam(h, _, b)):
                    return InvertibleForm("prod", sorts, (a, h, b))
                case "abs", (a, Lam(h, _, b), Lam(_, _, m)):
                    return InvertibleForm("abs", sorts, (a, h, b, m))
                case "app", (a, Lam(h, _, b), m, n):
                    return InvertibleForm("app", sorts, (a, h, b, m, n))
    return None


def invert(enc: EncodingTheory, t: DkTerm) -> EptsTerm:
    """Translate back, discarding binder annotations."""
    form = recognize(enc, t)
    if form is None:
        raise NotInvertible("term is outside the invertible fragment", term=t)
    match form.tag:
        case "var":
            return EVar(form.parts[0])
        case "sort":
            return ESort(form.sorts[0])
        case "prod":
            a, h, b = form.parts
            s1, s2 = form.sorts
            return EPi(s1, s2, invert(enc, a), h, invert(enc, b))
        case "abs":
            a, h, b, m = form.parts
            s1, s2 = form.sorts
            return ELam(s1, s2, invert(enc, a), h, invert(enc, b), invert(enc, m))
        case "app":
            a, h, b, m, n = form.parts
            s1, s2 = form.sorts
            return EApp(s1, s2, invert(enc, a), h, invert(enc, b),
                        invert(enc, m), invert(enc, n))
    raise AssertionError


# --- the lexer as a character loop -----------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "string" | "punct" | "eof"
    text: str
    line: int
    col: int


_IDENT = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_@%']*")
_PUNCT = ("-->", "->", ":=", "(", ")", "{", "}", "[", "]", ",", ":", ".")


def lex(text: str, source: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j == n or text[j] != '"':
                raise ParseError("unterminated string literal", Span(source, line, col))
            toks.append(Token("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        m = _IDENT.match(text, i)
        if m:
            toks.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", Span(source, line, col))
    toks.append(Token("eof", "", line, col))
    return toks


# --- term parsers and printers, one per language --------------------------


@dataclass
class _DkEnv:
    """Scope for framework term parsing.

    ``known`` maps constants to their arities; when ``metas`` is set,
    identifiers that resolve to nothing become pattern variables instead
    of errors (rule mode).
    """

    known: dict[str, int]
    stack: list[str] = field(default_factory=list)
    metas: bool = False


def _dk_term(p: _Parser, env: _DkEnv) -> DkTerm:
    if p.at("ident", "Pi") or p.at("ident", "lam"):
        kw = p.advance().text
        name = p.ident("a binder name")
        p.expect("punct", ":")
        ann = _dk_term(p, env)
        p.expect("punct", ".")
        env.stack.append(name)
        try:
            body = _dk_term(p, env)
        finally:
            env.stack.pop()
        return Pi(name, ann, body) if kw == "Pi" else Lam(name, ann, body)
    left = _dk_app(p, env)
    if p.eat("punct", "->"):
        return arrow(left, _dk_term(p, env))
    return left


def _starts_atom(p: _Parser) -> bool:
    t = p.peek()
    if t.kind == "punct" and t.text == "(":
        return True
    return t.kind == "ident" and (t.text in ("TYPE", "KIND") or t.text not in KEYWORDS)


def _dk_app(p: _Parser, env: _DkEnv) -> DkTerm:
    t = _dk_atom(p, env)
    while _starts_atom(p):
        t = App(t, _dk_atom(p, env))
    return t


def _dk_atom(p: _Parser, env: _DkEnv) -> DkTerm:
    if p.eat("punct", "("):
        t = _dk_term(p, env)
        p.expect("punct", ")")
        return t
    tok = p.peek()
    if tok.kind != "ident":
        raise p.fail("expected a term")
    name = tok.text
    if name == "TYPE":
        p.advance()
        return TYPE
    if name == "KIND":
        p.advance()
        return KIND
    if name in KEYWORDS:
        raise p.fail("expected a term")
    p.advance()
    for depth, bound in enumerate(reversed(env.stack)):
        if bound == name:
            return Var(depth)
    if name in env.known:
        arity = env.known[name]
        if arity == 0:
            return Cons(name)
        p.expect("punct", "(")
        args = [_dk_term(p, env)]
        while p.eat("punct", ","):
            args.append(_dk_term(p, env))
        p.expect("punct", ")")
        if len(args) != arity:
            raise p.fail(f"constant '{name}' takes {arity} arguments, got {len(args)}")
        return Cons(name, tuple(args))
    if env.metas:
        return Meta(name)
    raise p.fail(f"unknown identifier '{name}'")


def parse_dk_term(text: str, theory: Theory, names: Sequence[str] = (),
                  metas: bool = False, source: str = "<term>") -> DkTerm:
    """Parse one framework term against a theory's signature."""
    p = _Parser(text, source)
    env = _DkEnv({d.name: d.arity for d in theory.signature}, list(names), metas)
    t = _dk_term(p, env)
    p.expect("eof")
    return t


@dataclass
class _PtsEnv:
    spec: SortSpec
    stack: list[str] = field(default_factory=list)
    defs: dict[str, tuple[PtsTerm, int]] = field(default_factory=dict)


def _pts_term(p: _Parser, env: _PtsEnv) -> PtsTerm:
    if p.at("ident", "Pi") or p.at("ident", "lam"):
        kw = p.advance().text
        name = p.ident("a binder name")
        p.expect("punct", ":")
        ann = _pts_term(p, env)
        p.expect("punct", ".")
        env.stack.append(name)
        try:
            body = _pts_term(p, env)
        finally:
            env.stack.pop()
        return PPi(name, ann, body) if kw == "Pi" else PLam(name, ann, body)
    left = _pts_app(p, env)
    if p.eat("punct", "->"):
        right = _pts_term(p, env)
        return PPi("_", left, shift(right, 1))
    return left


def _pts_app(p: _Parser, env: _PtsEnv) -> PtsTerm:
    t = _pts_atom(p, env)
    while _starts_atom(p):
        t = PApp(t, _pts_atom(p, env))
    return t


def _pts_atom(p: _Parser, env: _PtsEnv) -> PtsTerm:
    if p.eat("punct", "("):
        t = _pts_term(p, env)
        p.expect("punct", ")")
        return t
    tok = p.peek()
    if tok.kind != "ident" or tok.text in KEYWORDS:
        raise p.fail("expected a term")
    name = p.advance().text
    for depth, bound in enumerate(reversed(env.stack)):
        if bound == name:
            return PVar(depth)
    if name in env.defs:
        body, base = env.defs[name]
        return shift(body, len(env.stack) - base)
    if env.spec.has_sort(name):
        return PSort(name)
    raise p.fail(f"unknown identifier '{name}'")


def parse_pts_term(text: str, spec: SortSpec, names: Sequence[str] = (),
                   defs: dict[str, PtsTerm] | None = None,
                   source: str = "<term>") -> PtsTerm:
    """Parse one implicit-syntax term; ``defs`` are inlined abbreviations.

    Definition bodies must be expressed over exactly the ``names`` context.
    """
    p = _Parser(text, source)
    env = _PtsEnv(spec, list(names),
                  {n: (b, len(names)) for n, b in (defs or {}).items()})
    t = _pts_term(p, env)
    p.expect("eof")
    return t


def _dk_uses(t: DkTerm, j: int) -> bool:
    return any(type(u) is Var and u.index == j + d for u, d in subterms(t))


def _r_dk(t: DkTerm, env: list[str], prec: int, avoid: set[str]) -> str:
    match t:
        case Type():
            return "TYPE"
        case Kind():
            return "KIND"
        case Var(k):
            return _var_name(k, env)
        case Meta(name):
            return name
        case Cons(c, ()):
            return c
        case Cons(c, args):
            inner = ", ".join(_r_dk(a, env, 0, avoid) for a in args)
            return f"{c}({inner})"
        case App(f, a):
            s = f"{_r_dk(f, env, 1, avoid)} {_r_dk(a, env, 2, avoid)}"
            return s if prec <= 1 else f"({s})"
        case Lam(h, ann, body):
            name = _fresh(h, env, avoid)
            s = (f"lam {name} : {_r_dk(ann, env, 0, avoid)}. "
                 f"{_r_dk(body, env + [name], 0, avoid)}")
            return s if prec == 0 else f"({s})"
        case Pi(h, dom, cod):
            if not _dk_uses(cod, 0):
                s = (f"{_r_dk(dom, env, 1, avoid)} -> "
                     f"{_r_dk(shift(cod, -1, 1), env, 0, avoid)}")
            else:
                name = _fresh(h, env, avoid)
                s = (f"Pi {name} : {_r_dk(dom, env, 0, avoid)}. "
                     f"{_r_dk(cod, env + [name], 0, avoid)}")
            return s if prec == 0 else f"({s})"
    raise TypeError(f"not a framework term: {t!r}")


def _r_epts(t: EptsTerm, env: list[str], avoid: set[str]) -> str:
    """Explicit syntax is printed (for reports), never parsed back."""
    match t:
        case ESort(s):
            return s
        case EVar(k):
            return _var_name(k, env)
        case EPi(s1, s2, dom, h, cod):
            name = _fresh(h, env, avoid)
            return (f"Pi{{{s1},{s2}}}({_r_epts(dom, env, avoid)}, "
                    f"{name}. {_r_epts(cod, env + [name], avoid)})")
        case ELam(s1, s2, dom, h, cod, body):
            name = _fresh(h, env, avoid)
            inner = env + [name]
            return (f"lam{{{s1},{s2}}}({_r_epts(dom, env, avoid)}, "
                    f"{name}. {_r_epts(cod, inner, avoid)}, "
                    f"{name}. {_r_epts(body, inner, avoid)})")
        case EApp(s1, s2, dom, h, cod, fn, arg):
            name = _fresh(h, env, avoid)
            return (f"app{{{s1},{s2}}}({_r_epts(dom, env, avoid)}, "
                    f"{name}. {_r_epts(cod, env + [name], avoid)}, "
                    f"{_r_epts(fn, env, avoid)}, {_r_epts(arg, env, avoid)})")
    raise TypeError(f"not an explicit term: {t!r}")


def render(x: Any, names: Sequence[str] = (), avoid: Sequence[str] = ()) -> str:
    """A framework term (implicit source terms are framework terms) or an
    explicit term, by its own printer."""
    a = set(avoid)
    env = list(names)
    if isinstance(x, DkTerm):
        return _r_dk(x, env, 0, a)
    return _r_epts(x, env, a)


def _elab(spec: SortSpec, ctx: EptsContext, t: PtsTerm, f: Fuel) -> EptsTerm:
    match t:
        case PVar(k):
            if not 0 <= k < len(ctx):
                raise UnboundVariable(f"de Bruijn index {k} out of range")
            return EVar(k)
        case PSort(s):
            spec.require(s)
            return ESort(s)
        case PPi(h, dom, cod):
            edom = _elab(spec, ctx, dom, f)
            s1 = sort_of_type(spec, ctx, edom, f)
            inner = ctx.extend(h, edom)
            ecod = _elab(spec, inner, cod, f)
            s2 = sort_of_type(spec, inner, ecod, f)
            _require_rule(spec, s1, s2)
            return EPi(s1, s2, edom, h, ecod)
        case PLam(h, dom, body):
            edom = _elab(spec, ctx, dom, f)
            s1 = sort_of_type(spec, ctx, edom, f)
            inner = ctx.extend(h, edom)
            ebody = _elab(spec, inner, body, f)
            ecod = _e_infer(spec, inner, ebody, f)
            s2 = sort_of_type(spec, inner, ecod, f)
            _require_rule(spec, s1, s2)
            return ELam(s1, s2, edom, h, ecod, ebody)
        case PApp(fn, arg):
            efn = _elab(spec, ctx, fn, f)
            fnty = epts_whnf(spec, _e_infer(spec, ctx, efn, f), f)
            match fnty:
                case EPi(s1, s2, dom, h, cod):
                    earg = _elab(spec, ctx, arg, f)
                    _e_check(spec, ctx, earg, dom, f)
                    return EApp(s1, s2, dom, h, cod, efn, earg)
            raise NotAProduct("the function part of an application is not "
                              "of product type", head=efn, head_type=fnty)
    raise PimodError(f"cannot elaborate {t!r}")


# --- the framework kernel on terms -------------------------------------------


def _match_whnf(theory: Theory, pattern: DkTerm, holder: list[DkTerm], idx: int,
                env: dict[str, DkTerm], fuel: Fuel) -> bool:
    """Match with on-demand weak-head evaluation of inspected positions.

    Reductions performed while matching are kept in ``holder`` so later
    rule attempts (and the returned term on failure) reuse them.
    """
    match pattern:
        case Meta(n):
            if n in env:
                return env[n] == holder[idx]
            env[n] = holder[idx]
            return True
        case Cons(c, ps):
            t = whnf(theory, holder[idx], fuel)
            holder[idx] = t
            if not (isinstance(t, Cons) and t.name == c and len(t.args) == len(ps)):
                return False
            sub = list(t.args)
            ok = True
            for k, p in enumerate(ps):
                if not _match_whnf(theory, p, sub, k, env, fuel):
                    ok = False
                    break
            holder[idx] = Cons(c, tuple(sub))
            return ok
        case _:
            return False


def whnf(theory: Theory, t: DkTerm, fuel: int | Fuel | None = None) -> DkTerm:
    """Weak-head normal form under beta and the theory's rules."""
    f = Fuel.of(fuel)
    while True:
        match t:
            case App(fn, arg):
                head = whnf(theory, fn, f)
                if isinstance(head, Lam):
                    f.tick()
                    t = lib.subst(head.body, 0, arg)
                    continue
                return t if head is fn else App(head, arg)
            case Cons(c, args):
                rules = theory.rules_for(c)
                if not rules:
                    return t
                holder = list(args)
                fired = False
                for rule in rules:
                    if len(rule.lhs) != len(args):
                        continue
                    env: dict[str, DkTerm] = {}
                    ok = True
                    for i, p in enumerate(rule.lhs):
                        if not _match_whnf(theory, p, holder, i, env, f):
                            ok = False
                            break
                    if ok:
                        f.tick()
                        t = instantiate(rule.rhs, env)
                        fired = True
                        break
                if not fired:
                    return Cons(c, tuple(holder))
            case _:
                return t


Log = list[tuple[list[str], DkTerm, DkTerm]]


def _path_str(path: tuple[str, ...]) -> str:
    return " > ".join(path) if path else "top level"


def _infer(theory: Theory, ctx: DkContext, t: DkTerm, f: Fuel,
           log: Log | None, path: tuple[str, ...]) -> DkTerm:
    match t:
        case Var(k):
            if not 0 <= k < len(ctx):
                raise UnboundVariable(f"variable index {k} escapes the context at {_path_str(path)}")
            ty = ctx.type_of(k)
        case Type():
            ty = KIND
        case Kind():
            raise KindHasNoType(f"KIND has no type (at {_path_str(path)})")
        case Meta(n):
            raise UnboundVariable(f"pattern variable '{n}' in an object term at {_path_str(path)}")
        case Cons(c, args):
            decl = theory.decl(c)
            if decl is None:
                raise UnknownConstant(f"constant '{c}' is not declared (at {_path_str(path)})")
            if len(args) != decl.arity:
                raise ArityMismatch(
                    f"'{c}' expects {decl.arity} arguments, got {len(args)} (at {_path_str(path)})")
            for i, a in enumerate(args):
                expected = lib.subst_many(decl.telescope[i][1], tuple(reversed(args[:i])))
                _check(theory, ctx, a, expected, f, log,
                       path + (f"argument {i + 1} of '{c}'",))
            ty = lib.subst_many(decl.result, tuple(reversed(args)))
        case App(fn, arg):
            fn_ty = whnf(theory, _infer(theory, ctx, fn, f, log, path + ("function position",)), f)
            if not isinstance(fn_ty, Pi):
                raise NotAProduct(
                    f"applied term is not of product type (at {_path_str(path)})",
                    names=ctx.names, function=fn, actual=fn_ty)
            _check(theory, ctx, arg, fn_ty.dom, f, log, path + ("argument position",))
            ty = lib.subst(fn_ty.cod, 0, arg)
        case Lam(h, ann, body):
            _check_is_type(theory, ctx, ann, f, log, path + (f"domain of '{h}'",))
            body_ty = _infer(theory, ctx.extend(h, ann), body, f, log, path + (f"body of '{h}'",))
            if body_ty == KIND:
                raise KindHasNoType(
                    f"abstraction body is itself a kind; no product covers it (at {_path_str(path)})")
            ty = Pi(h, ann, body_ty)
        case Pi(h, dom, cod):
            _check_is_type(theory, ctx, dom, f, log, path + (f"domain of '{h}'",))
            cod_sort = whnf(theory, _infer(theory, ctx.extend(h, dom), cod, f, log,
                                           path + (f"codomain of '{h}'",)), f)
            if not isinstance(cod_sort, (Type, Kind)):
                raise TypeMismatch(
                    f"product codomain must be a type or a kind (at {_path_str(path)})",
                    names=ctx.names + [h], expected=TYPE, actual=cod_sort)
            ty = cod_sort
        case _:
            raise PimodError(f"cannot type {t!r}")
    if log is not None:
        log.append((ctx.names, t, ty))
    return ty


def _check_is_type(theory: Theory, ctx: DkContext, t: DkTerm, f: Fuel,
                   log: Log | None, path: tuple[str, ...]) -> None:
    sort = whnf(theory, _infer(theory, ctx, t, f, log, path), f)
    if sort != TYPE:
        raise TypeMismatch(
            f"binder annotation must be a type (at {_path_str(path)})",
            names=ctx.names, expected=TYPE, actual=sort)


def _check(theory: Theory, ctx: DkContext, t: DkTerm, ty: DkTerm, f: Fuel,
           log: Log | None, path: tuple[str, ...]) -> None:
    actual = _infer(theory, ctx, t, f, log, path)
    if not convertible(theory, actual, ty, f):
        raise TypeMismatch(
            f"type mismatch at {_path_str(path)}", names=ctx.names,
            expected=whnf(theory, ty, f), actual=whnf(theory, actual, f))


def kernel_infer(theory: Theory, ctx: DkContext, t: DkTerm,
                 fuel: int | Fuel | None = None, log: Log | None = None) -> DkTerm:
    """Infer the unique (up to conversion) type of ``t`` in ``ctx``."""
    return _infer(theory, ctx, t, Fuel.of(fuel), log, ())


def kernel_check(theory: Theory, ctx: DkContext, t: DkTerm, ty: DkTerm,
                 fuel: int | Fuel | None = None, log: Log | None = None) -> None:
    """Check ``t`` against ``ty``; raises ``TypeMismatch`` with both sides
    weak-head normalized when conversion fails."""
    _check(theory, ctx, t, ty, Fuel.of(fuel), log, ())


def check_context(theory: Theory, ctx: DkContext,
                  fuel: int | Fuel | None = None, log: Log | None = None) -> list[Diagnostic]:
    """Each entry's type must be TYPE-sorted in the preceding prefix."""
    f = Fuel.of(fuel)
    out: list[Diagnostic] = []
    names: set[str] = set()
    prefix = DkContext()
    for hint, ty in ctx.entries:
        if hint in names:
            out.append(Diagnostic("duplicate-name", f"context name '{hint}' repeats", hint))
        names.add(hint)
        try:
            sort = whnf(theory, _infer(theory, prefix, ty, f, log, (f"context entry '{hint}'",)), f)
            if sort == KIND:
                out.append(Diagnostic(
                    "not-a-type", f"type of '{hint}' is Kind-sorted, not TYPE", hint))
            elif sort != TYPE:
                out.append(Diagnostic("not-a-type", f"type of '{hint}' is not TYPE-sorted", hint))
        except PimodError as e:
            out.append(Diagnostic("ill-typed-context", str(e), hint))
        prefix = prefix.extend(hint, ty)
    return out


def check_signature(theory: Theory, fuel: int | Fuel | None = None,
                    log: Log | None = None) -> list[Diagnostic]:
    """Typing of every declaration: telescope entries are TYPE-sorted and
    the result type sorts to TYPE or KIND."""
    f = Fuel.of(fuel)
    out: list[Diagnostic] = []
    for d in theory.signature:
        try:
            ctx = DkContext()
            for hint, ty in d.telescope:
                sort = whnf(theory, _infer(theory, ctx, ty, f, log,
                                           (f"telescope of '{d.name}'", f"entry '{hint}'")), f)
                if sort != TYPE:
                    out.append(Diagnostic(
                        "not-a-type",
                        f"telescope entry '{hint}' of '{d.name}' is not TYPE-sorted", d.name))
                ctx = ctx.extend(hint, ty)
            sort = whnf(theory, _infer(theory, ctx, d.result, f, log,
                                       (f"result type of '{d.name}'",)), f)
            if not isinstance(sort, (Type, Kind)):
                out.append(Diagnostic(
                    "unsorted-result",
                    f"result type of '{d.name}' is neither TYPE- nor KIND-sorted", d.name))
        except PimodError as e:
            out.append(Diagnostic("ill-typed-declaration", str(e), d.name))
    return out


# --- the erasure witness on built lambda terms ------------------------------


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


def stlc_shift(t: StlcTerm, by: int, cutoff: int = 0) -> StlcTerm:
    """Shift an erased term.  A subterm that does not change is returned
    itself, so that it keeps the hash it has cached."""
    match t:
        case SVar(k):
            return SVar(k + by) if k >= cutoff and by else t
        case SApp(f, a):
            f2, a2 = stlc_shift(f, by, cutoff), stlc_shift(a, by, cutoff)
            return t if f2 is f and a2 is a else SApp(f2, a2)
        case SLam(h, b):
            b2 = stlc_shift(b, by, cutoff + 1)
            return t if b2 is b else SLam(h, b2)
        case _:
            return t


def erase_term(theory: Theory, m: DkTerm,
               pis: set[SimpleType] | None = None) -> StlcTerm:
    """Erase a term to an untyped lambda term, keeping all redexes alive.

    An abstraction becomes a redex applying a vacuous extra binder to
    the erased annotation, and a product applies a combinator (one per
    domain erasure, recorded in ``pis`` when given) to its erased
    pieces.  The erasure is built at its final depth, in time linear in
    the size of ``m``.  An abstraction puts two binders around its
    erased body (``_z``, then its own) and a product one, so ``Var(k)``
    erases to ``SVar(k + l)``, where ``l`` counts the abstractions among
    the ``k`` innermost binders around it.  The index map ``lams`` holds,
    for each prefix of the binders on the path from the root, the number
    of abstractions among them, which gives ``l`` in constant time.
    """
    lams = [0]

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
            sigma = erase_type(theory, t.dom)
            if pis is not None:
                pis.add(sigma)
            ed = go(t.dom)
            lams.append(lams[-1])
            ec = go(t.cod)
            lams.pop()
            return mk_sapp(SConst(pi_const_name(sigma)), ed, SLam(t.hint, ec))
        raise NotErasable(f"no term erasure for {t!r}")

    return go(m)


@dataclass(frozen=True)
class TypeVar(SimpleType):
    """Unification variable of ``stlc_check``."""

    id: int


def stlc_check(consts: dict[str, SimpleType], ctx: Sequence[SimpleType],
               m: StlcTerm, sigma: SimpleType) -> bool:
    """Is the judgment ``consts; ctx |- m : sigma`` derivable?"""
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


# --- the stages after the kernel check, as tree walks ----------------------


def redexes(root: rewrite.Root, t: lib.Term) -> Iterator[tuple[tuple[int, ...], object, lib.Term]]:
    """Lazily, every one-step reduct of ``t``, leftmost-outermost first, as
    (position, label, reduct).

    ``root(u)`` lists the (label, reduct) pairs of the redexes at ``u``'s
    root.  The root comes before its children, and the children in the
    order ``children()`` lists them; positions are child-index paths in
    that order.
    """
    for label, red in root(t):
        yield (), label, red
    kids = [k for k, _ in t.children()]
    for i, k in enumerate(kids):
        for path, label, red in redexes(root, k):
            yield (i, *path), label, t.with_children(kids[:i] + [red] + kids[i + 1:])


def normalize(root: rewrite.Root, t: lib.Term,
              fuel: int | Fuel | None = None) -> tuple[lib.Term, list[tuple[object, lib.Term]]]:
    """Contract the first of :func:`redexes` until there is none, one tick
    of ``fuel`` per step; the normal form and the labeled trace."""
    f = Fuel.of(fuel)
    trace: list[tuple[object, lib.Term]] = []
    while True:
        r = next(redexes(root, t), None)
        if r is None:
            return t, trace
        f.tick()
        t = r[2]
        trace.append((r[1], t))


def reducts(theory: Theory, t: DkTerm) -> list[tuple[tuple[int, ...], str, DkTerm]]:
    """All one-step reducts of ``t`` at every position, with labels.

    Positions are child-index paths, listed leftmost-outermost first; the
    first entry whose label passes a filter is the step
    :func:`pimod.rewrite.step` takes.
    """
    return list(redexes(rewrite._rule_root(theory, None), t))


def tree_hidden_equiv(enc: EncodingTheory, a: DkTerm, b: DkTerm,
                      fuel: int | Fuel | None = None) -> bool:
    """Equality up to conversion inside abstraction annotations only, and
    up to evaluation of the sort arguments of family members."""
    pairs: list[tuple[DkTerm, DkTerm]] = []

    def zip_(x: DkTerm, y: DkTerm) -> bool:
        if type(x) is Lam and type(y) is Lam:
            pairs.append((x.ann, y.ann))
            return zip_(x.body, y.body)
        if type(x) is Cons and type(y) is Cons:
            sx, sy = enc.split(x.name, x.args), enc.split(y.name, y.args)
            if sx is not None and sy is not None:
                return (sx[:2] == sy[:2] and len(sx[2]) == len(sy[2])
                        and all(zip_(p, q) for p, q in zip(sx[2], sy[2])))
        if not x.same_node(y):
            return x == y
        return all(zip_(p, q) for (p, _), (q, _) in zip(x.children(), y.children()))

    if not zip_(a, b):
        return False
    f = Fuel.of(fuel)
    return all(rewrite.convertible(enc.theory, p, q, f) for p, q in pairs)


def _e_check(spec: SortSpec, ctx: EptsContext, m: EptsTerm, ty: EptsTerm,
             f: Fuel) -> None:
    _expect(spec, ctx, m, _e_infer(spec, ctx, m, f), ty, f)


def _product(spec: SortSpec, ctx: EptsContext, m: EPi | ELam | EApp,
             f: Fuel) -> EptsContext:
    """What the typing rules of ``m``, a product, abstraction or application,
    share: both sorts known, the domain at ``s1``, the codomain at ``s2``
    under the binder, and a product rule for the pair.  Returns the
    context under the binder."""
    spec.require(m.s1)
    spec.require(m.s2)
    _e_check(spec, ctx, m.dom, ESort(m.s1), f)
    inner = ctx.extend(m.hint, m.dom)
    _e_check(spec, inner, m.cod, ESort(m.s2), f)
    _require_rule(spec, m.s1, m.s2)
    return inner


def _e_infer(spec: SortSpec, ctx: EptsContext, m: EptsTerm, f: Fuel) -> EptsTerm:
    match m:
        case EVar(k):
            return ctx.type_of(k)
        case ESort():
            return _head_type(spec, ctx, m)
        case EPi(s1, s2):
            _product(spec, ctx, m, f)
            return ESort(spec.rule_of(s1, s2))
        case ELam(s1, s2, dom, h, cod, body):
            _e_check(spec, _product(spec, ctx, m, f), body, cod, f)
            return EPi(s1, s2, dom, h, cod)
        case EApp(s1, s2, dom, h, cod, fn, arg):
            _product(spec, ctx, m, f)
            _e_check(spec, ctx, fn, EPi(s1, s2, dom, h, cod), f)
            _e_check(spec, ctx, arg, dom, f)
            return lib.subst(cod, 0, arg)
    raise PimodError(f"cannot type {m!r}")


def epts_infer(spec: SortSpec, ctx: EptsContext, m: EptsTerm,
               fuel: int | Fuel | None = None) -> EptsTerm:
    return _e_infer(spec, ctx, m, Fuel.of(fuel))


def epts_check(spec: SortSpec, ctx: EptsContext, m: EptsTerm, ty: EptsTerm,
               fuel: int | Fuel | None = None) -> None:
    _e_check(spec, ctx, m, ty, Fuel.of(fuel))


def sort_of_type(spec: SortSpec, ctx: EptsContext, a: EptsTerm,
                 fuel: int | Fuel | None = None) -> str:
    """The sort ``s`` with ``a : s``; fails if the type of ``a`` is not a sort."""
    f = Fuel.of(fuel)
    return _sort_of(spec, ctx, a, _e_infer(spec, ctx, a, f), f)


def conservative_invert(enc: EncodingTheory, ctx: EptsContext, t: DkTerm,
                        a: EptsTerm, fuel: int | Fuel | None = None) -> EptsTerm:
    """Recover a source term from any framework inhabitant of an encoded type."""
    f = Fuel.of(fuel)
    dctx = encode.translate_ctx(enc, ctx, f)
    want = encode.expected_dk_type(enc, ctx, a, f)
    kernel.check(enc.theory, dctx, t, want, f)
    normal = normalize(rewrite._rule_root(enc.theory, {BETA}), t, f)[0]
    m = invert(enc, normal)

    try:
        epts_check(enc.spec, ctx, m, a, f)
    except PimodError as e:
        raise EptsCheckFailed(
            "the recovered source term fails to type-check",
            term=m, reason=str(e)) from e

    if not tree_hidden_equiv(enc, encode.translate(enc, m), normal, f):
        raise InternalSoundnessError(
            "re-translating the recovered term changes more than binder "
            "annotations", term=m)
    return m


# --- morphism verification with a kernel per constant ----------------------


def apply_morphism(mor: TheoryMorphism, t: DkTerm) -> DkTerm:
    """Homomorphic extension; pattern variables are carried along inert."""
    kids = [apply_morphism(mor, k) for k, _ in t.children()]
    if isinstance(t, Cons):
        return lib.subst_many(mor.image_of(t.name), tuple(reversed(kids)))
    return t.with_children(kids)


def verify_morphism(mor: TheoryMorphism,
                    fuel: int | Fuel | None = None) -> list[Diagnostic]:
    """Both soundness conditions; an empty list means fully verified."""
    out: list[Diagnostic] = []
    f = Fuel.of(fuel)

    declared = {d.name for d in mor.source.signature}
    for name in mor.body:
        if name not in declared:
            out.append(Diagnostic(
                "unused-image",
                f"morphism maps '{name}', which the source never declares",
                name, severity="note"))

    for d in mor.source.signature:
        if d.name not in mor.body:
            out.append(Diagnostic(
                "missing-image", f"no image for source constant '{d.name}'",
                d.name))
            continue
        try:
            ctx = DkContext()
            for hint, a in d.telescope:
                ctx = ctx.extend(hint, apply_morphism(mor, a))
            bad = kernel.check_context(mor.target, ctx, f)
            if bad:
                out.append(Diagnostic(
                    "image-ill-typed",
                    f"the telescope image of '{d.name}' is not a valid "
                    f"target context: {bad[0].message}", d.name))
                continue
            kernel.check(mor.target, ctx, mor.body[d.name],
                         apply_morphism(mor, d.result), f)
        except PimodError as e:
            out.append(Diagnostic(
                "image-ill-typed",
                f"the image of '{d.name}' does not have the image type: {e}",
                d.name))

    for r in mor.source.rules:
        try:
            start = apply_morphism(mor, Cons(r.head, r.lhs))
            goal = apply_morphism(mor, r.rhs)
        except MissingBody as e:
            out.append(Diagnostic("missing-image",
                                  f"rule '{r.name}' mentions an unmapped "
                                  f"constant: {e}", r.name))
            continue
        verdict = _rule_verdict(mor, start, goal, f)
        if verdict == "refuted":
            out.append(Diagnostic(
                "rule-not-preserved",
                f"the image of rule '{r.name}' does not rewrite to the "
                "image of its right-hand side", r.name,
                data={"start": start, "goal": goal}))
        elif verdict == "inconclusive":
            out.append(Diagnostic(
                "rule-unverified",
                f"could not decide whether rule '{r.name}' is preserved "
                "within the step budget", r.name, severity="note",
                data={"start": start, "goal": goal}))
    return out


# --- the sort table by first match -------------------------------------------


def sort_value(spec: SortSpec, op: str, sorts: tuple[str, ...]) -> tuple[bool, str | None, object]:
    """Whether ``op`` over ``sorts`` is defined, its name and its value."""
    for s in sorts:
        spec.require(s)
    if isinstance(spec, FiniteSortSpec):
        v = spec.axioms.get(sorts[0]) if op == "Ax" else spec.rules.get(sorts)
        return v is not None, v, v
    v = rewrite.nf(spec.mini, Cons(op, tuple(map(spec.sort_term, sorts))))
    name = next((n for n, t in spec.named.items() if t == v), None)
    heads = {r.head for r in spec.rules} | {"Ax", "Ru"}
    stuck = all(type(u) is Cons and u.name not in heads for u, _ in subterms(v))
    return name is not None or stuck, name, v
