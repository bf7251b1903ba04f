"""The erasure witness read off the framework term against the one that
built the erased term.

``reference`` keeps the eager ``erase_term``, which builds the untyped
lambda term, and the old ``stlc_check``, which types such a term by
substitution with an occurs check at every binding.  The library's
``erase_term`` builds nothing, and its ``stlc_check`` reads the erased
term off the framework term.  On the same input both witnesses must
record the same product combinators and give the same verdict, or fail
with the same message.
"""

import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from pimod.analysis import (STAR, Arrow, erase_context, erase_signature, erase_term,
                            erase_type, pi_const_type, pi_context, stlc_check)
from pimod.corpus import load_cases, load_sorts
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import EptsContext, elaborate, elaborate_context, epts_infer
from pimod.errors import NotErasable
from pimod.terms import App, Cons, Lam, Pi, Var
from reference import SApp, SConst, SLam, SVar, mk_sapp
from strategies import C0, PARSE_THEORY, as_framework, dk_terms, stlc_terms
from termgen import GEN_THEORY, gen_judgment
from test_scripts import load

CASES = load_cases()
SIMPLE_TYPES = st.recursive(st.just(STAR), lambda ch: st.builds(Arrow, ch, ch), max_leaves=5)


def witness(erase, check, theory, ectx, m, sigma):
    """The verdict on ``m`` against ``sigma`` with the combinators its
    erasure needs, or the message the erasure fails with."""
    pis = set()
    try:
        erased = erase(theory, m, pis)
    except NotErasable as e:
        return "not erasable", str(e)
    consts = {**erase_signature(theory), **pi_context(pis)}
    return check(consts, ectx, erased, sigma), pis


def same_witness(theory, ectx, m, sigma):
    """Both witnesses agree on ``m`` against ``sigma``; the verdict."""
    got = witness(erase_term, stlc_check, theory, ectx, m, sigma)
    assert got == witness(ref.erase_term, ref.stlc_check, theory, ectx, m, sigma)
    return got[0] is True


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
def test_corpus_judgment_images(case):
    """Each image at its own type, and at the next judgment's type and
    at an arrow into its own, which it may or may not have."""
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    ectx = erase_context(enc.theory, translate_ctx(enc, ctx))
    assert case.file.judgments
    images, sigmas = [], []
    for j in case.file.judgments:
        m = elaborate(case.spec, ctx, j.term)
        a = elaborate(case.spec, ctx, j.type)
        images.append(translate(enc, m))
        sigmas.append(erase_type(enc.theory, expected_dk_type(enc, ctx, a)))
    for k, (img, sigma) in enumerate(zip(images, sigmas)):
        assert same_witness(enc.theory, ectx, img, sigma)
        same_witness(enc.theory, ectx, img, sigmas[k - 1])
        assert not same_witness(enc.theory, ectx, img, Arrow(STAR, sigma))


def test_generated_judgments():
    """Each term at its type and at an arrow into it, and its type at *."""
    rng = random.Random(31)
    wrong = 0
    for _ in range(3000):
        ctx, t, ty = gen_judgment(rng, depth=5)
        ectx = erase_context(GEN_THEORY, ctx)
        sigma = erase_type(GEN_THEORY, ty)
        assert same_witness(GEN_THEORY, ectx, t, sigma)
        wrong += not same_witness(GEN_THEORY, ectx, t, Arrow(STAR, sigma))
        # types put products under abstractions and variables under both
        same_witness(GEN_THEORY, ectx, ty, STAR)
    assert wrong > 1000


def test_depth_scaling_term():
    depth_term = load("depth_scaling").depth_term
    enc = generate(load_sorts("systemf").finite)
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        ctx = EptsContext()
        m = elaborate(enc.spec, ctx, depth_term(n))
        sigma = erase_type(enc.theory, expected_dk_type(enc, ctx, epts_infer(enc.spec, ctx, m)))
        assert same_witness(enc.theory, [], translate(enc, m), sigma)


def test_variables_skip_each_abstractions_vacuous_binder():
    n = Cons("c0")
    # x is crossed by one product (one binder) and one abstraction (two)
    t = Lam("x", n, Pi("y", n, Lam("z", n, Var(2))))
    want = SApp(SLam("_z", SLam("x", mk_sapp(
        SConst("pi*"), SConst("c0"),
        SLam("y", SApp(SLam("_z", SLam("z", SVar(3))), SConst("c0")))))), SConst("c0"))
    assert ref.erase_term(PARSE_THEORY, t) == want
    # the library reads x in the codomain: it must have type *, which
    # the product's variable y would not force
    u = Lam("x", n, Pi("y", n, App(Lam("z", n, Var(2)), Var(0))))
    assert same_witness(PARSE_THEORY, [], u, Arrow(STAR, STAR))
    assert not same_witness(PARSE_THEORY, [], u, Arrow(Arrow(STAR, STAR), STAR))


@given(dk_terms(max_leaves=16), st.lists(SIMPLE_TYPES, max_size=3), SIMPLE_TYPES)
def test_raw_terms(t, ctx, sigma):
    same_witness(PARSE_THEORY, ctx, t, sigma)


SELF_APPLICATION = Lam("x", C0, App(Var(0), Var(0)))
UNTYPABLE = [
    pytest.param({}, [], SELF_APPLICATION, Arrow(STAR, STAR), id="self-application"),
    # only the occurs check rejects a self-application whose type is discarded
    pytest.param({"c": STAR}, [], App(Lam("y", C0, Cons("c")), SELF_APPLICATION), STAR,
                 id="discarded-self-application"),
    pytest.param({}, [STAR], App(Lam("y", C0, Var(1)), Lam("f", C0, App(
        Var(0), Lam("x", C0, App(Var(1), Var(0)))))), STAR, id="discarded-f-of-eta-f"),
    pytest.param({"c": STAR}, [], Cons("ghost"), STAR, id="unknown-constant"),
    pytest.param({}, [STAR], Var(1), STAR, id="free-variable-out-of-range"),
    pytest.param({}, [], Lam("x", C0, Var(1)), Arrow(STAR, STAR),
                 id="bound-variable-out-of-range"),
    pytest.param({"c": STAR}, [], App(Cons("c"), Cons("c")), STAR, id="star-applied"),
    pytest.param({}, [], Lam("x", C0, Var(0)), STAR, id="abstraction-at-star"),
    pytest.param({}, [Arrow(STAR, STAR)], Var(0), Arrow(Arrow(STAR, STAR), STAR),
                 id="arrow-against-arrow-of-arrow"),
]


@pytest.mark.parametrize("consts, ctx, t, sigma", UNTYPABLE)
def test_untypable_judgments(consts, ctx, t, sigma):
    consts = {"c0": STAR, **consts}
    assert not stlc_check(consts, ctx, erase_term(PARSE_THEORY, t), sigma)
    assert not ref.stlc_check(consts, ctx, ref.erase_term(PARSE_THEORY, t), sigma)


CONSTS = {"c0": STAR, "pi*": pi_const_type(STAR)}


@given(stlc_terms(max_leaves=12), st.lists(SIMPLE_TYPES, max_size=3), SIMPLE_TYPES)
def test_raw_stlc_judgments(m, ctx, sigma):
    """A lambda term, read by the library as a framework term whose
    erasure is ``m`` up to the redexes of the vacuous binders."""
    got = stlc_check(CONSTS, ctx, erase_term(PARSE_THEORY, as_framework(m)), sigma)
    assert got == ref.stlc_check(CONSTS, ctx, m, sigma)


# --- sharing ----------------------------------------------------------------


def maximally_shared(t, table):
    """``t`` with one object for each class of equal subterms."""
    u = t.with_children([maximally_shared(k, table) for k, _ in t.children()])
    return table.setdefault(u, u)


def tree_copy(t):
    """``t`` with a new object at every position."""
    kids = [tree_copy(k) for k, _ in t.children()]
    return t.with_children(kids) if kids else copy.copy(t)


def same_verdict_shared_and_as_a_tree(theory, ectx, t, sigma):
    verdict = same_witness(theory, ectx, t, sigma)
    for u in (maximally_shared(t, {}), tree_copy(t)):
        assert same_witness(theory, ectx, u, sigma) == verdict
    return verdict


def test_sharing_keeps_the_verdict_of_generated_judgments():
    rng = random.Random(37)
    wrong = 0
    for _ in range(300):
        ctx, t, ty = gen_judgment(rng, depth=5)
        ectx = erase_context(GEN_THEORY, ctx)
        sigma = erase_type(GEN_THEORY, ty)
        assert same_verdict_shared_and_as_a_tree(GEN_THEORY, ectx, t, sigma)
        wrong += not same_verdict_shared_and_as_a_tree(GEN_THEORY, ectx, t, Arrow(STAR, sigma))
    assert wrong > 100


@given(dk_terms(max_leaves=16), st.lists(SIMPLE_TYPES, max_size=3), SIMPLE_TYPES)
def test_sharing_keeps_the_verdict_of_raw_terms(t, ctx, sigma):
    same_verdict_shared_and_as_a_tree(PARSE_THEORY, ctx, t, sigma)
