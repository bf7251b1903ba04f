"""Operations derived from the one child map agree with hand-written recursions.

``reference`` spells shifting and substitution out constructor by
constructor, once per term language; the library derives them for both
languages from the ``children``/``with_children`` methods of the node
classes.  The reduction engine of ``pimod.rewrite`` searches for
redexes, normalizes and descends through congruences over the child
map, for framework and source terms alike.  ``step`` and ``reducts``
must give the positions, labels and reducts of the framework's former
search, and the step under a label filter must be the first reduct the
filter admits; ``epts_redex`` and ``epts_reduce`` must give the reduct,
sort pair, trail and fuel ticks of the source language's former search
and trace loop.  The congruence descents of ``convertible``,
``epts_convertible`` and ``hidden_equiv`` must give the same answer as
the per-constructor versions and spend the same fuel.
Every node class, found through ``__subclasses__``, must list exactly
its term-valued fields as children, so a constructor without a child
map cannot be skipped silently, and no module of ``pimod`` may define
a term language outside the child map.
"""

import dataclasses
import importlib
import pkgutil
import random
import re
import typing

from hypothesis import example, given
from hypothesis import strategies as st

import reference as ref
import pimod
from pimod.analysis import SimpleType
from pimod.decode import hidden_equiv
from pimod.encode import EncodingTheory
from pimod.epts import EApp, ELam, EVar, epts_convertible, epts_redex, epts_reduce
from pimod.errors import FuelExhausted
from pimod.rewrite import BETA, Fuel, convertible, step
from pimod.terms import (Cons, Lam, Meta, RewriteRule, Term, Var, shift, subst,
                         subst_many, subterms)
from strategies import PARSE_THEORY, dk_terms, epts_terms, pts_terms
from systems import SYSTEM_F, SYSTEM_F_INT, extended, reducts
from termgen import GEN_THEORY, gen_judgment

SMALL = st.integers(0, 2)


class TestFrameworkTerms:
    @given(dk_terms(metas=True), st.integers(-1, 3), SMALL)
    def test_shift(self, t, by, cutoff):
        assert shift(t, by, cutoff) == ref.shift(t, by, cutoff)

    @given(dk_terms(metas=True), SMALL, dk_terms(metas=True))
    def test_subst(self, t, j, v):
        assert subst(t, j, v) == ref.subst(t, j, v)

    @given(dk_terms(metas=True), st.lists(dk_terms(metas=True), max_size=3), SMALL)
    def test_subst_many(self, t, values, depth):
        assert subst_many(t, tuple(values), depth) == ref.subst_many(t, tuple(values), depth)


class TestAnnotatedTerms:
    @given(epts_terms(), st.integers(0, 3), SMALL)
    def test_shift(self, t, by, cutoff):
        assert shift(t, by, cutoff) == ref.epts_shift(t, by, cutoff)

    @given(epts_terms(), SMALL, epts_terms())
    def test_subst(self, t, j, v):
        assert subst(t, j, v) == ref.epts_subst(t, j, v)


class TestSourceTerms:
    """Implicit source terms are framework terms, so the framework's
    hand-written recursions are their reference too."""

    @given(pts_terms(), st.integers(-1, 3), SMALL)
    def test_shift(self, t, by, cutoff):
        assert shift(t, by, cutoff) == ref.shift(t, by, cutoff)

    @given(pts_terms(), SMALL, pts_terms())
    def test_subst(self, t, j, v):
        assert subst(t, j, v) == ref.subst(t, j, v)


def _node_classes():
    """Every concrete node class of both term languages."""
    out, todo = set(), [Term]
    while todo:
        c = todo.pop()
        todo += c.__subclasses__()
        if dataclasses.is_dataclass(c):
            out.add(c)
    return sorted(out, key=lambda c: c.__name__)


def _term_fields(t):
    """The term-valued fields of ``t`` in declaration order, with the
    items of tuple-valued fields (the arguments of ``Cons``)."""
    out = []
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        out += [a for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, Term)]
    return out


def _check_child_map(t):
    kids = t.children()
    fields = _term_fields(t)
    assert len(kids) == len(fields), type(t).__name__
    assert all(k is f and b in (0, 1) for (k, b), f in zip(kids, fields))
    rebuilt = t.with_children([k for k, _ in kids])
    assert rebuilt == t and repr(rebuilt) == repr(t)  # hints included
    inner = type(t).children is not Term.children
    assert t.same_node(rebuilt) is inner, type(t).__name__
    assert not t.same_node(Meta("M") if type(t) is Var else Var(0))


def _instance(cls):
    """A node of ``cls`` built from its field annotations, each subterm a
    distinct variable."""
    hints = typing.get_type_hints(cls)
    fresh = iter(range(100))
    args = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            args.append((Var(next(fresh)), Var(next(fresh))))
        elif isinstance(hint, type) and issubclass(hint, Term):
            args.append(Var(next(fresh)))
        else:
            args.append(hint(1))
    return cls(*args)


class TestCompleteness:
    CLASSES = _node_classes()

    def test_every_language_is_found(self):
        names = {c.__name__ for c in self.CLASSES}
        assert {"Var", "Cons", "Type", "Kind", "App", "Lam", "Pi", "Meta",
                "EPi", "ELam", "EApp"} <= names

    def test_no_module_defines_another_term_language(self):
        """A class of ``pimod`` with a field of its own kind (a node of a
        term language, like an application's function) is a node of the
        child map, and the one class with an index is ``Var``: the
        erasure builds no lambda terms of its own.  Its simple types are
        the one other recursive data."""
        checked = 0
        for info in pkgutil.walk_packages(pimod.__path__, "pimod."):
            if info.name == "pimod.__main__":
                continue
            mod = importlib.import_module(info.name)
            for c in vars(mod).values():
                if not (isinstance(c, type) and c.__module__ == mod.__name__
                        and dataclasses.is_dataclass(c)):
                    continue
                checked += 1
                kinds = {b.__name__ for b in c.__mro__} - {"object"}
                fields = dataclasses.fields(c)
                if any(set(re.findall(r"\w+", str(f.type))) & kinds for f in fields):
                    assert issubclass(c, (Term, SimpleType)), c.__qualname__
                assert any(f.name == "index" for f in fields) == (c is Var), c.__qualname__
        assert checked > len(self.CLASSES)

    def test_variables_are_marked(self):
        """``Var`` is the one variable leaf: the one class with an index."""
        for c in self.CLASSES:
            has_index = "index" in {f.name for f in dataclasses.fields(c)}
            assert (c is Var) == has_index, c.__name__

    def test_every_class_lists_its_term_fields(self):
        for c in self.CLASSES:
            _check_child_map(_instance(c))

    @given(st.one_of(dk_terms(metas=True), pts_terms(), epts_terms()))
    def test_generated_terms(self, t):
        for u, _ in subterms(t):
            _check_child_map(u)


# rule labels of GEN_THEORY and of CONV_THEORY below
LABEL_SETS = (None, frozenset({BETA}), frozenset({"plus-z"}), frozenset({"plus-s"}),
              frozenset({BETA, "plus-s"}), frozenset({"g-c"}), frozenset({BETA, "h-g"}),
              frozenset())


def _check_redex_search(theory, t):
    all_reducts = reducts(theory, t)
    assert all_reducts == list(ref._redexes(theory, t, None))
    for labels in LABEL_SETS:
        first = next(((u, label) for _, label, u in all_reducts
                      if labels is None or label in labels), None)
        assert step(theory, t, labels) == first == ref.step(theory, t, labels)


def test_step_is_first_admitted_reduct():
    rng = random.Random(11)
    for _ in range(150):
        _, t, _ = gen_judgment(rng, depth=6)
        _check_redex_search(GEN_THEORY, t)


# the constants of ``dk_terms`` with two rules, so that whnf rewrites
CONV_THEORY = extended(PARSE_THEORY, rules=(
    RewriteRule("g1", (Cons("c0"),), Cons("c0"), name="g-c"),
    RewriteRule("h2", (Meta("M"), Meta("N")), Cons("g1", (Meta("N"),)), name="h-g"),
))
CONV_ENC = EncodingTheory(CONV_THEORY, SYSTEM_F, "finite")


@given(dk_terms())
def test_step_is_first_admitted_reduct_of_raw_terms(t):
    _check_redex_search(CONV_THEORY, t)


def _outcome(fn, *args):
    f = Fuel(60)
    try:
        verdict = fn(*args, f)
    except FuelExhausted:
        verdict = "exhausted"
    return verdict, f.remaining


def _pairs(a, b, reduct):
    """``(a, b)``, ``(a, a)`` and, when ``a`` reduces, ``a`` against its
    reduct both ways round, so that positive answers are exercised too."""
    out = [(a, b), (a, a)]
    r = reduct(a)
    if r is not None:
        out += [(a, r), (r, a)]
    return out


def _dk_reduct(t):
    s = step(CONV_THEORY, t)
    return None if s is None else s[0]


# (Type, Kind) has no product rule in System F, so its redexes are stuck
PAIRS = (("Type", "Type"), ("Kind", "Type"), ("Type", "Kind"))


def _redex(p, dom, cod, body, arg):
    return EApp(*p, dom, "x", cod, ELam(*p, dom, "x", cod, body), arg)


# raw annotated terms with beta redexes at the root and inside, since
# ``epts_terms`` alone rarely builds one
REDEX_TERMS = st.recursive(
    epts_terms(pairs=PAIRS),
    lambda ch: st.builds(_redex, st.sampled_from(PAIRS), ch, ch, ch, ch),
    max_leaves=12)


# (lam x. x x) (lam x. x x), annotated so that each step fires: never normal
_SELF = ELam("Type", "Type", EVar(0), "x", EVar(1),
             EApp("Type", "Type", EVar(1), "y", EVar(2), EVar(0), EVar(0)))
OMEGA = EApp("Type", "Type", EVar(0), "x", EVar(1), _SELF, _SELF)


def _epts_reduct(t):
    r = epts_redex(SYSTEM_F, t)
    return None if r is None else r[0]


class TestCongruence:
    @given(dk_terms(), dk_terms())
    def test_convertible(self, a, b):
        for x, y in _pairs(a, b, _dk_reduct):
            assert _outcome(convertible, CONV_THEORY, x, y) == \
                _outcome(ref.convertible, CONV_THEORY, x, y)

    @given(dk_terms(), dk_terms())
    def test_hidden_equiv(self, a, b):
        pairs = _pairs(a, b, _dk_reduct)
        r = _dk_reduct(a)
        if r is not None:
            # only the annotations differ, and they are convertible
            pairs.append((Lam("x", a, b), Lam("x", r, b)))
        for x, y in pairs:
            assert _outcome(hidden_equiv, CONV_ENC, x, y) == \
                _outcome(ref.hidden_equiv, CONV_ENC, x, y)

    @given(REDEX_TERMS, epts_terms())
    def test_epts_convertible(self, a, b):
        for x, y in _pairs(a, b, _epts_reduct):
            assert _outcome(epts_convertible, SYSTEM_F, x, y) == \
                _outcome(ref.epts_convertible, SYSTEM_F, x, y)


class TestSourceReduction:
    @given(REDEX_TERMS)
    @example(OMEGA)
    def test_epts_redex_and_reduce(self, t):
        for spec in (SYSTEM_F, SYSTEM_F_INT):
            assert epts_redex(spec, t) == ref.epts_redex(spec, t)
            assert _outcome(epts_reduce, spec, t) == _outcome(ref.epts_reduce, spec, t)
