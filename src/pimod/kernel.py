"""Bidirectional type checking for the rewriting framework.

Inference is syntax-directed: conversion is invoked exactly where a
checked position meets an inferred type (constant arguments, application
arguments, and the final ``check``).  A constant application is typed by
walking its telescope left to right, substituting earlier arguments into
later expected types, and instantiating the declared result type.

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
from .rewrite import Fuel, convertible, whnf
from .terms import (
    KIND, TYPE, App, Cons, DkContext, DkTerm, Kind, Lam, Meta, Pi, Theory,
    Type, Var, subst, subst_many,
)

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
                expected = subst_many(decl.telescope[i][1], tuple(reversed(args[:i])))
                _check(theory, ctx, a, expected, f, log,
                       path + (f"argument {i + 1} of '{c}'",))
            ty = subst_many(decl.result, tuple(reversed(args)))
        case App(fn, arg):
            fn_ty = whnf(theory, _infer(theory, ctx, fn, f, log, path + ("function position",)), f)
            if not isinstance(fn_ty, Pi):
                raise NotAProduct(
                    f"applied term is not of product type (at {_path_str(path)})",
                    names=ctx.names, function=fn, actual=fn_ty)
            _check(theory, ctx, arg, fn_ty.dom, f, log, path + ("argument position",))
            ty = subst(fn_ty.cod, 0, arg)
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


def infer(theory: Theory, ctx: DkContext, t: DkTerm,
          fuel: int | Fuel | None = None, log: Log | None = None) -> DkTerm:
    """Infer the unique (up to conversion) type of ``t`` in ``ctx``."""
    return _infer(theory, ctx, t, Fuel.of(fuel), log, ())


def check(theory: Theory, ctx: DkContext, t: DkTerm, ty: DkTerm,
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
            if sort != TYPE:
                out.append(Diagnostic(
                    "not-a-type", f"type of '{hint}' is {type(sort).__name__}-sorted, not TYPE", hint))
        except PimodError as e:
            out.append(Diagnostic("ill-typed-context", str(e), hint))
        prefix = prefix.extend(hint, ty)
    return out


def check_signature(theory: Theory, fuel: int | Fuel | None = None,
                    log: Log | None = None) -> list[Diagnostic]:
    """Typing of every declaration: telescope entries are TYPE-sorted and
    the result type sorts to TYPE or KIND.

    Declarations are checked under the full theory, so mutually
    referring constants are fine; structural problems (unknown
    constants, arity abuse) are ``validate_theory``'s job.
    """
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
