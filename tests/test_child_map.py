"""Operations derived from the child maps agree with hand-written recursions.

``reference`` spells shifting and substitution out constructor by
constructor; the library derives them from ``children``/``with_children``
(framework terms) and ``epts_children``/``epts_with_children`` (annotated
source terms).  ``step`` and ``reducts`` share one redex search, so the
step under a label filter must be the first reduct the filter admits.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from pimod.epts import epts_shift, epts_subst
from pimod.rewrite import BETA, reducts, step
from pimod.terms import instantiate, shift, subst, subst_many
from strategies import META_NAMES, dk_terms, epts_terms
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
        assert epts_shift(t, by, cutoff) == ref.epts_shift(t, by, cutoff)

    @given(epts_terms(), SMALL, epts_terms())
    def test_subst(self, t, j, v):
        assert epts_subst(t, j, v) == ref.epts_subst(t, j, v)


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
