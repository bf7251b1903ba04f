"""Operations derived from the one child map agree with hand-written recursions.

``reference`` spells shifting and substitution out constructor by
constructor, once per term language; the library derives them for all
four languages from the ``children``/``with_children`` methods of the
node classes.  ``step`` and ``reducts`` share one redex search, so the
step under a label filter must be the first reduct the filter admits.
The congruence descents of ``convertible``, ``epts_convertible`` and
``hidden_equiv`` follow the child map too; they must give the same
answer as the per-constructor versions and spend the same fuel.
Every node class, found through ``__subclasses__``, must list exactly
its term-valued fields as children, so a constructor without a child
map cannot be skipped silently.
"""

import dataclasses
import random
import typing

from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from pimod.decode import hidden_equiv
from pimod.encode import EncodingTheory
from pimod.epts import epts_convertible, epts_step
from pimod.errors import FuelExhausted
from pimod.rewrite import BETA, Fuel, convertible, reducts, step
from pimod.terms import (Cons, Lam, Meta, RewriteRule, Term, Var, Variable,
                         instantiate, shift, subst, subst_many, subterms)
from strategies import (META_NAMES, PARSE_THEORY, dk_terms, epts_terms,
                        pts_terms, stlc_terms)
from systems import SYSTEM_F
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

    @given(dk_terms(metas=True),
           st.dictionaries(st.sampled_from(META_NAMES), dk_terms(metas=True)), SMALL)
    def test_instantiate(self, t, env, depth):
        assert instantiate(t, env, depth) == ref.instantiate(t, env, depth)


class TestAnnotatedTerms:
    @given(epts_terms(), st.integers(0, 3), SMALL)
    def test_shift(self, t, by, cutoff):
        assert shift(t, by, cutoff) == ref.epts_shift(t, by, cutoff)

    @given(epts_terms(), SMALL, epts_terms())
    def test_subst(self, t, j, v):
        assert subst(t, j, v) == ref.epts_subst(t, j, v)


class TestSourceTerms:
    @given(pts_terms(), st.integers(-1, 3), SMALL)
    def test_shift(self, t, by, cutoff):
        assert shift(t, by, cutoff) == ref.pts_shift(t, by, cutoff)

    @given(pts_terms(), SMALL, pts_terms())
    def test_subst(self, t, j, v):
        assert subst(t, j, v) == ref.pts_subst(t, j, v)


class TestLambdaTerms:
    @given(stlc_terms(), st.integers(-1, 3), SMALL)
    def test_shift(self, t, by, cutoff):
        assert shift(t, by, cutoff) == ref.stlc_shift(t, by, cutoff)

    @given(stlc_terms(), SMALL, stlc_terms())
    def test_subst(self, t, j, v):
        assert subst(t, j, v) == ref.stlc_subst(t, j, v)


def _node_classes():
    """Every concrete node class of every term language (a variable class
    is reached twice, through its language and through ``Variable``)."""
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
                "EVar", "ESort", "EPi", "ELam", "EApp",
                "PVar", "PSort", "PPi", "PLam", "PApp",
                "SVar", "SConst", "SApp", "SLam"} <= names

    def test_variables_are_marked(self):
        for c in self.CLASSES:
            has_index = "index" in {f.name for f in dataclasses.fields(c)}
            assert issubclass(c, Variable) == has_index, c.__name__

    def test_every_class_lists_its_term_fields(self):
        for c in self.CLASSES:
            _check_child_map(_instance(c))

    @given(st.one_of(dk_terms(metas=True), pts_terms(), epts_terms(), stlc_terms()))
    def test_generated_terms(self, t):
        for u, _ in subterms(t):
            _check_child_map(u)


LABEL_SETS = (None, frozenset({BETA}), frozenset({"plus-z"}), frozenset({"plus-s"}),
              frozenset({BETA, "plus-s"}), frozenset())


def test_step_is_first_admitted_reduct():
    rng = random.Random(11)
    for _ in range(150):
        _, t, _ = gen_judgment(rng, depth=6)
        all_reducts = reducts(GEN_THEORY, t)
        for labels in LABEL_SETS:
            first = next(((u, label) for _, label, u in all_reducts
                          if labels is None or label in labels), None)
            assert step(GEN_THEORY, t, labels) == first


# the constants of ``dk_terms`` with two rules, so that whnf rewrites
CONV_THEORY = PARSE_THEORY.extended(rules=(
    RewriteRule("g1", (Cons("c0"),), Cons("c0"), name="g-c"),
    RewriteRule("h2", (Meta("M"), Meta("N")), Cons("g1", (Meta("N"),)), name="h-g"),
))
CONV_ENC = EncodingTheory(CONV_THEORY, SYSTEM_F, "finite")


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

    @given(epts_terms(), epts_terms())
    def test_epts_convertible(self, a, b):
        for x, y in _pairs(a, b, lambda t: epts_step(SYSTEM_F, t)):
            assert _outcome(epts_convertible, SYSTEM_F, x, y) == \
                _outcome(ref.epts_convertible, SYSTEM_F, x, y)
