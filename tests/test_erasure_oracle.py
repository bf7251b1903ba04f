"""The linear-time erasure witness against the one it replaced.

``reference`` keeps the old ``erase_term``, which shifts each
abstraction's erased body under the vacuous ``_z`` binder, and the old
``stlc_check``, which unifies by substitution with an occurs check at
every binding.  On the same input both erasures must be ``==``, record
the same product combinators and fail with the same message, and both
checks must give the same verdict.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from pimod.analysis import (STAR, Arrow, SApp, SConst, SLam, SVar, erase_context,
                            erase_signature, erase_term, erase_type, mk_sapp,
                            pi_const_type, pi_context, stlc_check)
from pimod.corpus import load_cases, load_sorts
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import EptsContext, elaborate, elaborate_context, epts_infer
from pimod.errors import NotErasable
from pimod.terms import Cons, Lam, Pi, Var
from strategies import PARSE_THEORY, dk_terms, stlc_terms
from termgen import GEN_THEORY, gen_judgment
from test_scripts import load

CASES = load_cases()


def erasure(erase, theory, m):
    """The erasure with its combinators, or the message it fails with."""
    pis = set()
    try:
        return erase(theory, m, pis), pis
    except NotErasable as e:
        return "not erasable", str(e)


def same_witness(theory, ectx, m, sigma):
    """Both witnesses agree on ``m`` against ``sigma``; the verdict."""
    got = erasure(erase_term, theory, m)
    assert got == erasure(ref.erase_term, theory, m)
    erased, pis = got
    consts = {**erase_signature(theory), **pi_context(pis)}
    verdict = stlc_check(consts, ectx, erased, sigma)
    assert verdict == ref.stlc_check(consts, ectx, erased, sigma)
    return verdict


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
def test_corpus_judgment_images(case):
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    ectx = erase_context(enc.theory, translate_ctx(enc, ctx))
    assert case.file.judgments
    for j in case.file.judgments:
        m = elaborate(case.spec, ctx, j.term)
        a = elaborate(case.spec, ctx, j.type)
        sigma = erase_type(enc.theory, expected_dk_type(enc, ctx, a))
        assert same_witness(enc.theory, ectx, translate(enc, m), sigma)


def test_generated_judgments():
    rng = random.Random(31)
    for _ in range(60):
        ctx, t, ty = gen_judgment(rng, depth=5)
        ectx = erase_context(GEN_THEORY, ctx)
        assert same_witness(GEN_THEORY, ectx, t, erase_type(GEN_THEORY, ty))
        # types put products under abstractions and variables under both
        same_witness(GEN_THEORY, ectx, ty, STAR)


def test_depth_scaling_term():
    depth_term = load("depth_scaling").depth_term
    enc = generate(load_sorts("systemf").finite)
    sig = erase_signature(enc.theory)
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        ctx = EptsContext()
        m = elaborate(enc.spec, ctx, depth_term(n))
        sigma = erase_type(enc.theory, expected_dk_type(enc, ctx, epts_infer(enc.spec, ctx, m)))
        img = translate(enc, m)
        erased = erase_term(enc.theory, img)
        assert erased == ref.erase_term(enc.theory, img)
        assert stlc_check(sig, [], erased, sigma)
        assert ref.stlc_check(sig, [], erased, sigma)


def test_variables_skip_each_abstractions_vacuous_binder():
    n = Cons("c0")
    # x is crossed by one product (one binder) and one abstraction (two)
    t = Lam("x", n, Pi("y", n, Lam("z", n, Var(2))))
    want = SApp(SLam("_z", SLam("x", mk_sapp(
        SConst("pi*"), SConst("c0"),
        SLam("y", SApp(SLam("_z", SLam("z", SVar(3))), SConst("c0")))))), SConst("c0"))
    assert erase_term(PARSE_THEORY, t) == want == ref.erase_term(PARSE_THEORY, t)


@given(dk_terms(max_leaves=16))
def test_raw_terms(t):
    assert erasure(erase_term, PARSE_THEORY, t) == erasure(ref.erase_term, PARSE_THEORY, t)


SELF_APPLICATION = SLam("x", SApp(SVar(0), SVar(0)))
UNTYPABLE = [
    pytest.param({}, [], SELF_APPLICATION, Arrow(STAR, STAR), id="self-application"),
    # only the occurs check rejects a self-application whose type is discarded
    pytest.param({"c": STAR}, [], SApp(SLam("y", SConst("c")), SELF_APPLICATION), STAR,
                 id="discarded-self-application"),
    pytest.param({}, [STAR], SApp(SLam("y", SVar(1)), SLam("f", SApp(
        SVar(0), SLam("x", SApp(SVar(1), SVar(0)))))), STAR, id="discarded-f-of-eta-f"),
    pytest.param({"c": STAR}, [], SConst("ghost"), STAR, id="unknown-constant"),
    pytest.param({}, [STAR], SVar(1), STAR, id="free-variable-out-of-range"),
    pytest.param({}, [], SLam("x", SVar(1)), Arrow(STAR, STAR), id="bound-variable-out-of-range"),
    pytest.param({"c": STAR}, [], SApp(SConst("c"), SConst("c")), STAR, id="star-applied"),
    pytest.param({}, [], SLam("x", SVar(0)), STAR, id="abstraction-at-star"),
    pytest.param({}, [Arrow(STAR, STAR)], SVar(0), Arrow(Arrow(STAR, STAR), STAR),
                 id="arrow-against-arrow-of-arrow"),
]


@pytest.mark.parametrize("consts, ctx, m, sigma", UNTYPABLE)
def test_untypable_judgments(consts, ctx, m, sigma):
    assert not stlc_check(consts, ctx, m, sigma)
    assert not ref.stlc_check(consts, ctx, m, sigma)


SIMPLE_TYPES = st.recursive(st.just(STAR), lambda ch: st.builds(Arrow, ch, ch), max_leaves=5)
CONSTS = {"c0": STAR, "pi*": pi_const_type(STAR)}


@given(stlc_terms(max_leaves=12), st.lists(SIMPLE_TYPES, max_size=3), SIMPLE_TYPES)
def test_raw_stlc_judgments(m, ctx, sigma):
    assert stlc_check(CONSTS, ctx, m, sigma) == ref.stlc_check(CONSTS, ctx, m, sigma)

