"""Hypothesis strategies over raw (not necessarily well-typed) terms.

The syntactic laws under test -- shift/substitute algebra, alpha
equality, parse/render identity, translation compositionality -- hold
for every term, so unconstrained generation gives the strongest
coverage per example.
"""

from hypothesis import strategies as st

from pimod.analysis import SApp, SConst, SLam, SVar
from pimod.epts import EApp, ELam, EPi, ESort, EVar, PApp, PLam, PPi, PSort, PVar
from pimod.terms import KIND, TYPE, App, Cons, Declaration, Lam, Meta, Pi, Theory, Var

HINTS = st.sampled_from(["x", "y", "z", "w"])
META_NAMES = ("M", "N", "P")

# constants available to generated framework terms; arity is part of the key
CONST_ARITIES = (("c0", 0), ("g1", 1), ("h2", 2))

# a signature declaring them, for parser round trips (the annotations are
# nonsense types -- only names and arities matter to the lexer/parser)
PARSE_THEORY = Theory((
    Declaration("c0", (), TYPE),
    Declaration("g1", (("a", TYPE),), TYPE),
    Declaration("h2", (("a", TYPE), ("b", TYPE)), TYPE),
), ())

FREE_NAMES = ("v0", "v1", "v2")


def dk_terms(max_free=3, sorts=True, metas=False, max_leaves=12):
    leaves = [st.builds(Var, st.integers(0, max_free - 1))] if max_free else []
    if sorts:
        leaves += [st.just(TYPE), st.just(KIND)]
    leaves += [st.just(Cons(n)) for n, a in CONST_ARITIES if a == 0]
    if metas:
        leaves.append(st.builds(Meta, st.sampled_from(META_NAMES)))

    def extend(ch):
        opts = [st.builds(App, ch, ch),
                st.builds(Lam, HINTS, ch, ch),
                st.builds(Pi, HINTS, ch, ch)]
        for n, a in CONST_ARITIES:
            if a:
                opts.append(st.builds(lambda *args, n=n: Cons(n, args), *([ch] * a)))
        return st.one_of(*opts)

    return st.recursive(st.one_of(*leaves), extend, max_leaves=max_leaves)


def pts_terms(sorts=("Type",), max_free=3, max_leaves=10, hints=HINTS):
    leaves = st.one_of(st.builds(PVar, st.integers(0, max_free - 1)),
                       st.builds(PSort, st.sampled_from(sorts)))

    def extend(ch):
        return st.one_of(st.builds(PApp, ch, ch),
                         st.builds(PLam, hints, ch, ch),
                         st.builds(PPi, hints, ch, ch))

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def epts_terms(sorts=("Type", "Kind"), pairs=(("Type", "Type"), ("Kind", "Type")),
               max_free=3, max_leaves=8):
    """Raw annotated terms; annotations are drawn from `pairs`."""
    leaves = st.one_of(st.builds(EVar, st.integers(0, max_free - 1)),
                       st.builds(ESort, st.sampled_from(sorts)))
    pair = st.sampled_from(pairs)

    def extend(ch):
        def pi(p, d, h, c):
            return EPi(p[0], p[1], d, h, c)

        def lam(p, d, h, c, b):
            return ELam(p[0], p[1], d, h, c, b)

        def app(p, d, h, c, f, a):
            return EApp(p[0], p[1], d, h, c, f, a)

        return st.one_of(st.builds(pi, pair, ch, HINTS, ch),
                         st.builds(lam, pair, ch, HINTS, ch, ch),
                         st.builds(app, pair, ch, HINTS, ch, ch, ch))

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def stlc_terms(max_free=3, max_leaves=10):
    """Raw untyped lambda terms, the codomain of the erasure."""
    leaves = st.one_of(st.builds(SVar, st.integers(0, max_free - 1)),
                       st.builds(SConst, st.sampled_from(["c0", "pi*"])))

    def extend(ch):
        return st.one_of(st.builds(SApp, ch, ch), st.builds(SLam, HINTS, ch))

    return st.recursive(leaves, extend, max_leaves=max_leaves)
