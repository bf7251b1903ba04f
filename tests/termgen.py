"""Seeded generation of well-typed framework terms.

Hand-rolled, type-directed random walks rather than hypothesis
strategies: the metatheory properties need terms that are well typed
by construction, in a theory with genuine dependency (``Fam``) and
rewriting (``plus``), and with embedded beta redexes so that subject
reduction actually fires.
"""

import random

from pimod.errors import PimodError
from pimod.kernel import infer
from pimod.terms import (TYPE, App, Cons, DkContext, DkTerm, Declaration, Lam,
                         Meta, Pi, RewriteRule, Theory, Var, shift)

GEN_THEORY = Theory((
    Declaration("Base", (), TYPE),
    Declaration("b0", (), Cons("Base")),
    Declaration("step", (("x", Cons("Base")),), Cons("Base")),
    Declaration("plus", (("m", Cons("Base")), ("n", Cons("Base"))), Cons("Base")),
    Declaration("Fam", (("x", Cons("Base")),), TYPE),
    Declaration("f0", (("x", Cons("Base")),), Cons("Fam", (Var(0),))),
), (
    RewriteRule("plus", (Cons("b0"), Meta("n")), Meta("n"), name="plus-z"),
    RewriteRule("plus", (Cons("step", (Meta("m"),)), Meta("n")),
                Cons("step", (Cons("plus", (Meta("m"), Meta("n"))),)),
                name="plus-s"),
))

BASE = Cons("Base")


def _vars_of(ctx: DkContext, ty: DkTerm) -> list[int]:
    return [k for k in range(len(ctx)) if ctx.type_of(k) == ty]


def gen_base(rng: random.Random, ctx: DkContext, depth: int) -> DkTerm:
    opts = ["b0"]
    if depth > 0:
        opts += ["step", "plus", "redex"]
    vs = _vars_of(ctx, BASE)
    if vs:
        opts += ["var", "var"]
    match rng.choice(opts):
        case "b0":
            return Cons("b0")
        case "step":
            return Cons("step", (gen_base(rng, ctx, depth - 1),))
        case "plus":
            return Cons("plus", (gen_base(rng, ctx, depth - 1),
                                 gen_base(rng, ctx, depth - 1)))
        case "var":
            return Var(rng.choice(vs))
        case _:
            return redex_wrap(rng, ctx, BASE, depth - 1)


def gen_type(rng: random.Random, ctx: DkContext, depth: int) -> DkTerm:
    opts = ["Base", "Base"]
    if depth > 0:
        opts += ["Fam", "Pi"]
    match rng.choice(opts):
        case "Base":
            return BASE
        case "Fam":
            return Cons("Fam", (gen_base(rng, ctx, depth - 1),))
        case _:
            dom = gen_type(rng, ctx, depth - 1)
            cod = gen_type(rng, ctx.extend("p", dom), depth - 1)
            return Pi("p", dom, cod)


def gen_term(rng: random.Random, ctx: DkContext, ty: DkTerm, depth: int) -> DkTerm:
    """A term of the given (beta-R-normal-shaped) type, redexes included."""
    match ty:
        case Pi(h, dom, cod):
            if depth > 0 and rng.random() < 0.2:
                return redex_wrap(rng, ctx, ty, depth - 1)
            return Lam(h, dom, gen_term(rng, ctx.extend(h, dom), cod,
                                        max(depth - 1, 0)))
        case Cons("Base", ()):
            return gen_base(rng, ctx, depth)
        case Cons("Fam", (idx,)):
            vs = _vars_of(ctx, ty)
            if vs and rng.random() < 0.4:
                return Var(rng.choice(vs))
            if depth > 0 and rng.random() < 0.25:
                return redex_wrap(rng, ctx, ty, depth - 1)
            return Cons("f0", (idx,))
        case _:
            raise AssertionError(f"no generator for goal type {ty!r}")


def redex_wrap(rng: random.Random, ctx: DkContext, ty: DkTerm,
               depth: int) -> DkTerm:
    """``(lam u : D. M) N`` of type ``ty``, for fresh ``D`` and ``N : D``."""
    dom = gen_type(rng, ctx, min(depth, 1))
    arg = gen_term(rng, ctx, dom, depth)
    body = gen_term(rng, ctx.extend("u", dom), shift(ty, 1), depth)
    return App(Lam("u", dom, body), arg)


def gen_context(rng: random.Random, n: int, depth: int = 2) -> DkContext:
    ctx = DkContext()
    for k in range(n):
        ctx = ctx.extend(f"v{k}", gen_type(rng, ctx, depth))
    return ctx


def gen_judgment(rng: random.Random, depth: int = 6):
    """A ``(ctx, term, type)`` triple, well typed by construction."""
    ctx = gen_context(rng, rng.randrange(4))
    ty = gen_type(rng, ctx, rng.randrange(1, 4))
    return ctx, gen_term(rng, ctx, ty, rng.randrange(2, depth + 1)), ty


# --- beta-expansion of arbitrary well-typed terms -------------------------
#
# Wrapping any subterm ``t`` of inferred type ``T`` as
# ``(lam w : T. w) t`` preserves the type and adds exactly one beta
# redex whose contraction restores the original.  Only object- and
# family-level subterms qualify: the lambda's domain must itself be a
# type (sorts and kinds cannot annotate a binder).


def _positions(t: DkTerm, path=()):
    yield path
    match t:
        case Cons(_, args):
            for i, a in enumerate(args):
                yield from _positions(a, path + (("c", i),))
        case App(f, a):
            yield from _positions(f, path + (("f",),))
            yield from _positions(a, path + (("a",),))
        case Lam(_, ann, body):
            yield from _positions(ann, path + (("n",),))
            yield from _positions(body, path + (("b",),))
        case Pi(_, dom, cod):
            yield from _positions(dom, path + (("d",),))
            yield from _positions(cod, path + (("k",),))


def _wrap_at(theory: Theory, ctx: DkContext, t: DkTerm, path) -> DkTerm | None:
    """Wrap the subterm at ``path`` in an identity redex, or None if the
    site is not annotatable (its type is not itself a type)."""
    if not path:
        try:
            ty = infer(theory, ctx, t)
            sort = infer(theory, ctx, ty)
        except PimodError:
            return None
        if sort != TYPE:
            return None
        return App(Lam("w", ty, Var(0)), t)

    step, rest = path[0], path[1:]
    rebuilt: DkTerm | None
    match t, step:
        case Cons(c, args), ("c", i):
            sub = _wrap_at(theory, ctx, args[i], rest)
            rebuilt = None if sub is None else \
                Cons(c, args[:i] + (sub,) + args[i + 1:])
        case App(f, a), ("f",):
            sub = _wrap_at(theory, ctx, f, rest)
            rebuilt = None if sub is None else App(sub, a)
        case App(f, a), ("a",):
            sub = _wrap_at(theory, ctx, a, rest)
            rebuilt = None if sub is None else App(f, sub)
        case Lam(h, ann, body), ("n",):
            sub = _wrap_at(theory, ctx, ann, rest)
            rebuilt = None if sub is None else Lam(h, sub, body)
        case Lam(h, ann, body), ("b",):
            sub = _wrap_at(theory, ctx.extend(h, ann), body, rest)
            rebuilt = None if sub is None else Lam(h, ann, sub)
        case Pi(h, dom, cod), ("d",):
            sub = _wrap_at(theory, ctx, dom, rest)
            rebuilt = None if sub is None else Pi(h, sub, cod)
        case Pi(h, dom, cod), ("k",):
            sub = _wrap_at(theory, ctx.extend(h, dom), cod, rest)
            rebuilt = None if sub is None else Pi(h, dom, sub)
        case _:
            rebuilt = None
    return rebuilt


def beta_expand(rng: random.Random, theory: Theory, ctx: DkContext,
                t: DkTerm, wraps: int = 2) -> DkTerm:
    """Insert up to ``wraps`` identity redexes at random annotatable sites."""
    done = 0
    attempts = 0
    while done < wraps and attempts < 20 * wraps:
        attempts += 1
        paths = list(_positions(t))
        candidate = _wrap_at(theory, ctx, t, rng.choice(paths))
        if candidate is not None:
            t = candidate
            done += 1
    if done == 0:
        raise AssertionError("no annotatable site found")
    return t
