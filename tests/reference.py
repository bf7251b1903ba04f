"""Hand-written de Bruijn operations, kept as the reference that the
operations derived from the child maps are compared against.

Each function is a direct recursion over the constructors, independent
of the child maps that ``pimod.terms`` and ``pimod.epts`` derive these
operations from.  Substitution here re-shifts the value at every binder
it crosses, a second route to the result the library reaches by
shifting once at the leaves.
"""

from pimod.epts import EApp, ELam, EPi, ESort, EptsTerm, EVar
from pimod.terms import App, Cons, DkTerm, Lam, Meta, Pi, Var


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
