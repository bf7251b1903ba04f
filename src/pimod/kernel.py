"""Bidirectional type checking for the rewriting framework.

Inference is syntax-directed: conversion is invoked exactly where a
checked position meets an inferred type (constant arguments, application
arguments, and the final ``check``).

The checker runs on the closures of :class:`pimod.rewrite.Machine`.
A context variable is a de Bruijn level, so looking up its type is
O(1) and weakens nothing.  Argument ``i`` of a constant is checked
against telescope entry ``i`` under the earlier arguments, and the
constant's type is its result type under all of them; an
application's type closes the product's codomain over the argument.  No
term is substituted or shifted, and a term is rebuilt ("quoted") only
where it is printed: in the log, and in the ``expected``/``actual`` of
:class:`TypeMismatch` and :class:`NotAProduct`.

Each top-level call memoizes inference on the node object and the
context, which is interned: extending a context by the same name and
annotation object gives the same context.  Both tables are
:class:`pimod.terms.NodeMemo` tables, which hold the node objects their
keys name.  A shared subterm, such as a type code of a translation
image, which is maximally shared, is therefore typed once per context it
occurs in, and a memo hit replays the log entries its first inference
made.  The exception is a *ground* term: a constant
applied to ground arguments.  A :class:`pimod.terms.Theory` mentions
no variable outside a telescope or a rule's left-hand side, so a ground
term's type does not depend on the context: it is typed once per call,
under the node alone, wherever it occurs; a hit in another context
replays the first inference's log entries with the current context's
names in place of the first context's.  The memo dies with the call.

Every entry point draws its reduction steps on one budget, ``fuel``: an
int starts a fresh :class:`Fuel`, a ``Fuel`` is shared, so a caller that
passes its own meter bounds the kernel's work together with the rest of
its operation.  ``log``, when given, receives ``(context names, term,
inferred type)`` for every inference, innermost first.
"""

from __future__ import annotations

from .errors import (
    ArityMismatch, Diagnostic, KindHasNoType, NotAProduct, PimodError,
    TypeMismatch, UnboundVariable, UnknownConstant,
)
from .rewrite import Clo, Fuel, Machine, VPi, head_class
from .terms import KIND, TYPE, App, Cons, DkContext, DkTerm, Kind, Lam, Meta, NodeMemo, Pi, Theory, Type, Var

Log = list[tuple[list[str], DkTerm, DkTerm]]

KIND_VALUE = Clo(KIND, ())


def _path_str(path: tuple[str, ...]) -> str:
    return " > ".join(path) if path else "top level"


class _Scope:
    """A context of one kernel call: its names, its entry types as values
    (entry ``i`` at level ``i``) and its environment."""

    __slots__ = ("names", "types", "env", "depth")

    def __init__(self, names: list[str], types: tuple, env: tuple):
        self.names = names
        self.types = types
        self.env = env
        self.depth = len(types)


class _Kernel:
    """The state of one top-level call: the machine, the log, the contexts
    interned by (context, name, annotation object) and the inference memo,
    keyed by (node, context), or by the node alone for a ground term."""

    __slots__ = ("theory", "m", "log", "scopes", "memo", "root")

    def __init__(self, theory: Theory, fuel: int | Fuel | None, log: Log | None):
        self.theory = theory
        self.m = Machine(theory, Fuel.of(fuel))
        self.log = log
        self.scopes = NodeMemo()
        self.memo = NodeMemo()
        self.root = _Scope([], (), ())

    def extend(self, sc: _Scope, hint: str, ty: DkTerm) -> _Scope:
        key = (sc, hint, id(ty))
        inner = self.scopes.get(key)
        if inner is None:
            m = self.m
            inner = _Scope(sc.names + [hint], sc.types + (m.clo(ty, sc.env),), m.env(sc.depth + 1))
            self.scopes.put(key, inner, ty)
        return inner

    def scope(self, ctx: DkContext) -> _Scope:
        sc = self.root
        for hint, ty in ctx.entries:
            sc = self.extend(sc, hint, ty)
        return sc

    def infer(self, sc: _Scope, t: DkTerm, path: tuple[str, ...]):
        """The type of ``t`` in ``sc``, as a value.  A node other than a
        leaf is typed once per context, a ground term once; a repeat replays
        its log entries."""
        m, log = self.m, self.log
        tt = type(t)
        if tt is Var:
            k = t.index
            if not 0 <= k < sc.depth:
                raise UnboundVariable(f"variable index {k} escapes the context at {_path_str(path)}")
            ty = sc.types[sc.depth - 1 - k]
            if log is not None:
                log.append((list(sc.names), t, m.quote(ty, sc.depth)))
            return ty
        if tt is Type:
            if log is not None:
                log.append((list(sc.names), t, KIND))
            return KIND_VALUE
        if tt is Kind:
            raise KindHasNoType(f"KIND has no type (at {_path_str(path)})")
        if tt is Meta:
            raise UnboundVariable(f"pattern variable '{t.name}' in an object term at {_path_str(path)}")
        memo = self.memo
        hit = memo.get(id(t)) if tt is Cons else None
        if hit is None:
            key = (id(t), sc)
            hit = memo.get(key)
        if hit is not None:
            if log is not None:
                _, a, b, first = hit
                n = first.depth
                log.extend([(sc.names + names[n:], u, v) for names, u, v in log[a:b]])
            return hit[0]
        start = len(log) if log is not None else 0
        if tt is Cons:
            c, args = t.name, t.args
            decl = self.theory.decl(c)
            if decl is None:
                raise UnknownConstant(f"constant '{c}' is not declared (at {_path_str(path)})")
            if len(args) != decl.arity:
                raise ArityMismatch(
                    f"'{c}' expects {decl.arity} arguments, got {len(args)} (at {_path_str(path)})")
            env = tuple(m.clo(a, sc.env) for a in args)
            for i, a in enumerate(args):
                self.check(sc, a, m.clo(decl.telescope[i][1], env[:i]),
                           path + (f"argument {i + 1} of '{c}'",))
            ty = m.clo(decl.result, env)
            # every ground argument sits under its node alone by now
            if all(id(a) in memo for a in args):
                key = id(t)
        elif tt is App:
            fn_ty = m.whnf(self.infer(sc, t.fn, path + ("function position",)))
            if head_class(fn_ty) is not Pi:
                raise NotAProduct(
                    f"applied term is not of product type (at {_path_str(path)})",
                    names=sc.names, avoid=self.theory.names, function=t.fn,
                    actual=m.quote(fn_ty, sc.depth))
            self.check(sc, t.arg, m.dom(fn_ty), path + ("argument position",))
            ty = m.instantiate(fn_ty, m.clo(t.arg, sc.env))
        elif tt is Lam:
            h = t.hint
            self.check_is_type(sc, t.ann, path + (f"domain of '{h}'",))
            body_ty = self.infer(self.extend(sc, h, t.ann), t.body, path + (f"body of '{h}'",))
            if head_class(body_ty) is Kind:
                raise KindHasNoType(
                    f"abstraction body is itself a kind; no product covers it (at {_path_str(path)})")
            ty = VPi(h, m.clo(t.ann, sc.env), body_ty, sc.depth)
        elif tt is Pi:
            h = t.hint
            self.check_is_type(sc, t.dom, path + (f"domain of '{h}'",))
            inner = self.extend(sc, h, t.dom)
            ty = m.whnf(self.infer(inner, t.cod, path + (f"codomain of '{h}'",)))
            if head_class(ty) not in (Type, Kind):
                raise TypeMismatch(
                    f"product codomain must be a type or a kind (at {_path_str(path)})",
                    names=inner.names, avoid=self.theory.names, expected=TYPE,
                    actual=m.quote(ty, inner.depth))
        else:
            raise PimodError(f"cannot type {t!r}")
        if log is not None:
            log.append((list(sc.names), t, m.quote(ty, sc.depth)))
        memo.put(key, (ty, start, len(log) if log is not None else 0, sc), t)
        return ty

    def check_is_type(self, sc: _Scope, t: DkTerm, path: tuple[str, ...]) -> None:
        sort = self.m.whnf(self.infer(sc, t, path))
        if head_class(sort) is not Type:
            raise TypeMismatch(
                f"binder annotation must be a type (at {_path_str(path)})",
                names=sc.names, avoid=self.theory.names, expected=TYPE,
                actual=self.m.quote(sort, sc.depth))

    def check(self, sc: _Scope, t: DkTerm, ty, path: tuple[str, ...]) -> None:
        """``t`` must have the type ``ty``, a value; on a mismatch both sides
        are reported weak-head normal."""
        m = self.m
        actual = self.infer(sc, t, path)
        if not m.conv(actual, ty, sc.depth):
            raise TypeMismatch(
                f"type mismatch at {_path_str(path)}", names=sc.names, avoid=self.theory.names,
                expected=m.quote(m.whnf(ty), sc.depth), actual=m.quote(m.whnf(actual), sc.depth))

    def sort(self, sc: _Scope, t: DkTerm, path: tuple[str, ...]) -> type:
        """The term class of the weak-head normal type of ``t``."""
        return head_class(self.m.whnf(self.infer(sc, t, path)))

    def check_judgment(self, ctx: DkContext, t: DkTerm, ty: DkTerm) -> None:
        """:func:`check` in this call's state."""
        sc = self.scope(ctx)
        self.check(sc, t, self.m.clo(ty, sc.env), ())

    def check_context(self, ctx: DkContext) -> list[Diagnostic]:
        """:func:`check_context` in this call's state."""
        out: list[Diagnostic] = []
        names: set[str] = set()
        prefix = self.root
        for hint, ty in ctx.entries:
            if hint in names:
                out.append(Diagnostic("duplicate-name", f"context name '{hint}' repeats", hint))
            names.add(hint)
            try:
                sort = self.sort(prefix, ty, (f"context entry '{hint}'",))
                if sort is not Type:
                    out.append(Diagnostic(
                        "not-a-type", f"type of '{hint}' is {sort.__name__}-sorted, not TYPE", hint))
            except PimodError as e:
                out.append(Diagnostic("ill-typed-context", str(e), hint))
            prefix = self.extend(prefix, hint, ty)
        return out


def infer(theory: Theory, ctx: DkContext, t: DkTerm,
          fuel: int | Fuel | None = None, log: Log | None = None) -> DkTerm:
    """Infer the unique (up to conversion) type of ``t`` in ``ctx``."""
    k = _Kernel(theory, fuel, log)
    return k.m.quote(k.infer(k.scope(ctx), t, ()), len(ctx))


def check(theory: Theory, ctx: DkContext, t: DkTerm, ty: DkTerm,
          fuel: int | Fuel | None = None, log: Log | None = None) -> None:
    """Check ``t`` against ``ty``; raises ``TypeMismatch`` with both sides
    weak-head normalized when conversion fails."""
    _Kernel(theory, fuel, log).check_judgment(ctx, t, ty)


def check_context(theory: Theory, ctx: DkContext,
                  fuel: int | Fuel | None = None, log: Log | None = None) -> list[Diagnostic]:
    """Each entry's type must be TYPE-sorted in the preceding prefix."""
    return _Kernel(theory, fuel, log).check_context(ctx)


def check_signature(theory: Theory, fuel: int | Fuel | None = None,
                    log: Log | None = None) -> list[Diagnostic]:
    """Typing of every declaration: telescope entries are TYPE-sorted and
    the result type sorts to TYPE or KIND.

    Declarations are checked under the full theory, so mutually
    referring constants are fine; structural problems (unknown
    constants, arity abuse) are ``validate_theory``'s job.
    """
    k = _Kernel(theory, fuel, log)
    out: list[Diagnostic] = []
    for d in theory.signature:
        try:
            sc = k.root
            for hint, ty in d.telescope:
                if k.sort(sc, ty, (f"telescope of '{d.name}'", f"entry '{hint}'")) is not Type:
                    out.append(Diagnostic(
                        "not-a-type",
                        f"telescope entry '{hint}' of '{d.name}' is not TYPE-sorted", d.name))
                sc = k.extend(sc, hint, ty)
            if k.sort(sc, d.result, (f"result type of '{d.name}'",)) not in (Type, Kind):
                out.append(Diagnostic(
                    "unsorted-result",
                    f"result type of '{d.name}' is neither TYPE- nor KIND-sorted", d.name))
        except PimodError as e:
            out.append(Diagnostic("ill-typed-declaration", str(e), d.name))
    return out
