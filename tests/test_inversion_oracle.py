"""The stages of ``conservative_invert`` after the kernel check against
the tree walks they replaced.

``reference`` keeps the redex search, ``invert``, ``hidden_equiv`` and
the source checker as they were before each visited a distinct node
object once, and a ``conservative_invert`` built from them.  On the same
input both must give the same result: the same reducts at the same
positions, the same recovered term (compared through ``repr``, which
shows binder hints), the same verdict, and the same failure, exception
class and message.  The new stages skip work the tree walks repeat on
shared subterms, so they spend at most the old ticks.  The redex
search, which returns only the first redex and skips the node objects
it has found clean, must give the tree walk's first redex and, over a
whole normalization, its trace for the same ticks.  The work counts at
the end pin the saving on the depth term of ``scripts/depth_scaling.py``
and on the corpus images.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from pimod.corpus import load_cases, load_sorts
from pimod.decode import conservative_invert, hidden_equiv, invert
from pimod.encode import generate, translate, translate_ctx
from pimod.epts import (EApp, ELam, EPi, ESort, EVar, EptsContext, elaborate,
                        elaborate_context, epts_check, epts_infer, sort_of_type)
from pimod.errors import FuelExhausted, PimodError, TypeMismatch
from pimod.kernel import infer
from pimod.rewrite import BETA, Fuel, _rule_root, first_redex, nf, normalize, step
from pimod.terms import App, Cons, Lam, NodeMemo, Pi, Var, map_leaves
from strategies import HINTS, dk_terms, epts_terms
from systems import SYSTEM_F
from termgen import GEN_THEORY, beta_expand, gen_judgment
from test_child_map import CONV_THEORY
from test_decode import ENCODINGS, NEAR_IMAGES
from test_encode import SF_ENC
from test_scripts import load

CASES = load_cases()
DEPTH_SCALING = load("depth_scaling")
distinct_nodes = DEPTH_SCALING.distinct_nodes

# three variables for the raw terms of ``epts_terms``: C : Type, c : C, g : C -> C
CTX = (EptsContext().extend("C", ESort("Type")).extend("c", EVar(0))
       .extend("g", EPi("Type", "Type", EVar(1), "x", EVar(2))))


def run(fn, *args, fuel: int = 1_000_000):
    """``fn(*args, fuel)`` as (result, failure, ticks); the result through
    ``repr``, the failure as its class, message and printed form."""
    f = Fuel(fuel)
    try:
        out, err = fn(*args, f), None
    except (PimodError, FuelExhausted) as e:
        out, err = None, e
    failure = None if err is None else (type(err), getattr(err, "message", None), str(err))
    return repr(out), failure, f.limit - f.remaining


def same(new, old, *args, fuel: int = 1_000_000):
    """``new`` and ``old`` agree on ``args``, ``new`` on no more ticks; a
    budget the old walk runs out of may be enough for the new one."""
    got, want = run(new, *args, fuel=fuel), run(old, *args, fuel=fuel)
    assert got[2] <= want[2]
    if want[1] is None or want[1][0] is not FuelExhausted:
        assert got[:2] == want[:2]
    return got


def inverted(invert_):
    return lambda enc, t, f: invert_(enc, t)


def the_search_agrees(root, t, fuel: int = 1_000_000):
    """:func:`first_redex` gives the tree walk's first redex: its position,
    label and reduct, compared through ``repr``, which shows binder hints;
    :func:`normalize` yields the tree walk's trace for the same ticks."""
    assert repr(first_redex(root, t, NodeMemo())) == repr(next(ref.redexes(root, t), None))
    assert (run(lambda u, f: list(normalize(root, u, f)), t, fuel=fuel)
            == run(lambda u, f: ref.normalize(root, u, f)[1], t, fuel=fuel))


def the_stages_agree(enc, ctx, t, a):
    """The redex search under all labels and under the simulation labels,
    and every stage of ``conservative_invert`` on ``t``, and the whole,
    agree with the tree walks."""
    for labels in (None, enc.simulation_labels()):
        the_search_agrees(_rule_root(enc.theory, labels), t)
    normal = nf(enc.theory, t, labels={BETA})
    same(inverted(invert), inverted(ref.invert), enc, normal)
    back = invert(enc, normal)
    same(epts_check, ref.epts_check, enc.spec, ctx, back, a)
    same(epts_infer, ref.epts_infer, enc.spec, ctx, back)
    same(sort_of_type, ref.sort_of_type, enc.spec, ctx, a)
    same(lambda *args: hidden_equiv(enc, *args), lambda *args: ref.tree_hidden_equiv(enc, *args),
         translate(enc, back), normal)
    same(conservative_invert, ref.conservative_invert, enc, ctx, t, a)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
def test_corpus_images(case):
    """Each judgment's image, the image under an identity redex, and the
    image beta-expanded at random sites."""
    rng = random.Random(53)
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    dctx = translate_ctx(enc, ctx)
    assert case.file.judgments
    for j in case.file.judgments:
        m = elaborate(case.spec, ctx, j.term)
        a = elaborate(case.spec, ctx, j.type)
        img = translate(enc, m)
        wrapped = App(Lam("w", infer(enc.theory, dctx, img), Var(0)), img)
        for t in (img, wrapped, beta_expand(rng, enc.theory, dctx, img, wraps=2)):
            the_stages_agree(enc, ctx, t, a)


def test_generated_judgments():
    """Seeded well-typed terms of a theory with rules, under each label
    filter: the same first redex, and the same traces for the same ticks."""
    rng = random.Random(37)
    for _ in range(60):
        _, t, _ = gen_judgment(rng, depth=5)
        for labels in (None, {BETA}, {"plus-s"}):
            the_search_agrees(_rule_root(GEN_THEORY, labels), t)


# --- forced sharing ---------------------------------------------------------------


def plug(t, s, picks):
    """``t`` with the leaves ``picks`` selects, cyclically, replaced by ``s``."""
    choice = itertools.cycle(picks)
    return map_leaves(t, lambda u, _: s if next(choice) else u)


def shared(terms, parts, joins):
    """Terms of ``terms`` in which one object drawn from ``parts`` sits at
    two positions or more: joined by ``joins`` to a template holding it
    at the leaves ``picks`` selects."""
    @st.composite
    def build(draw):
        s = draw(parts)
        template = plug(draw(terms), s, draw(st.lists(st.booleans(), min_size=1, max_size=5)))
        outer, inner = draw(st.sampled_from(joins)), draw(st.sampled_from(joins))
        return outer(inner(template, s), s), s
    return build()


DK_JOINS = (App, lambda x, y: Cons("h2", (x, y)), lambda x, y: Lam("x", x, y),
            lambda x, y: Pi("y", x, y), lambda x, y: App(y, x))
DK_REDEXES = st.builds(lambda h, a, b, c: App(Lam(h, a, b), c), HINTS,
                       dk_terms(max_leaves=3), dk_terms(max_leaves=4), dk_terms(max_leaves=3))
SHARED_DK = shared(dk_terms(max_leaves=8), st.one_of(dk_terms(max_leaves=5), DK_REDEXES),
                   DK_JOINS)


@settings(max_examples=200)
@given(SHARED_DK)
def test_the_search_on_shared_terms(ts):
    """Under a small budget, since untyped terms may not normalize."""
    t, _ = ts
    for labels in (None, {BETA}):
        the_search_agrees(_rule_root(CONV_THEORY, labels), t, fuel=50)
    first = next(ref.redexes(_rule_root(CONV_THEORY, None), t), None)
    assert step(CONV_THEORY, t) == (None if first is None else (first[2], first[1]))


EPTS_JOINS = (
    lambda x, y: EApp("Type", "Type", y, "x", x, x, y),
    lambda x, y: ELam("Type", "Type", x, "x", y, y),
    lambda x, y: EPi("Type", "Type", y, "y", x),
    lambda x, y: EApp("Kind", "Type", x, "z", y, EVar(0), x),
)
SHARED_EPTS = shared(epts_terms(max_leaves=6), epts_terms(max_leaves=4), EPTS_JOINS)


@settings(max_examples=200)
@given(SHARED_EPTS)
def test_the_checker_on_shared_source_terms(ts):
    """Mostly ill-typed: the first error, its class and message agree."""
    m, _ = ts
    same(epts_infer, ref.epts_infer, SYSTEM_F, CTX, m)
    same(epts_check, ref.epts_check, SYSTEM_F, CTX, m, EVar(2))
    same(sort_of_type, ref.sort_of_type, SYSTEM_F, CTX, m)


@ENCODINGS
@settings(max_examples=100)
@given(ts=SHARED_EPTS)
def test_invert_on_shared_images(enc, ts):
    """``translate`` keeps the sharing; inverting its image gives the tree
    walk's term, with no more objects than the image."""
    img = translate(enc, ts[0])
    got = same(inverted(invert), inverted(ref.invert), enc, img)
    if got[1] is None:
        assert distinct_nodes(invert(enc, img)) <= distinct_nodes(img)


@ENCODINGS
@settings(max_examples=100)
@given(data=st.data())
def test_recovered_terms_fail_the_checker_alike(enc, data):
    """Terms inverted from near-images, shared or not, are checked with the
    same outcome, failures included."""
    t, _ = data.draw(shared(NEAR_IMAGES[enc.mode], NEAR_IMAGES[enc.mode], DK_JOINS))
    for u in (t, t.children()[0][0] if t.children() else t):
        try:
            back = invert(enc, u)
        except PimodError:
            continue
        same(epts_infer, ref.epts_infer, enc.spec, CTX, back)
        same(epts_check, ref.epts_check, enc.spec, CTX, back, ESort("Type"))


@settings(max_examples=100)
@given(data=st.data())
def test_hidden_equiv_on_shared_terms(data):
    """Finite System F under a small budget, so that looping annotations
    run out alike."""
    t, s = data.draw(shared(NEAR_IMAGES["finite"], NEAR_IMAGES["finite"], DK_JOINS))
    r = step(SF_ENC.theory, t)
    for u in (t, s, map_leaves(t, lambda v, _: v)) + (() if r is None else (r[0],)):
        same(lambda a, b, f: hidden_equiv(SF_ENC, a, b, f),
             lambda a, b, f: ref.tree_hidden_equiv(SF_ENC, a, b, f), t, u, fuel=200)


def test_ill_typed_recovered_terms():
    """Members over ``C`` whose function part is no function, whose
    argument has the wrong type, whose body has the wrong type, and a
    product at (Kind, Type) whose domain is a type: the same first error,
    each one past a domain and a codomain that check."""
    el = Cons("El@Type", (Var(2),))
    cod = Lam("x", el, Var(3))
    bad = [Cons("app@Type@Type", (Var(2), cod, Var(1), Var(1))),
           Cons("app@Type@Type", (Var(2), cod, Var(0), Var(0))),
           Cons("abs@Type@Type", (Var(2), cod, Lam("x", el, Var(1)))),
           Cons("Prod@Kind@Type", (Var(2), cod))]
    for t in bad:
        back = invert(SF_ENC, t)
        assert back == ref.invert(SF_ENC, t)
        got = same(epts_check, ref.epts_check, SYSTEM_F, CTX, back, ESort("Type"))
        assert got[1][0] is TypeMismatch


# --- memo keys: each test fails against a memo keyed on too little ------------


def test_one_name_over_two_domains_gives_two_contexts():
    """``f1 (f2 g c)`` with ``f1 = lam x : C. x`` and ``f2 = lam x : C -> C. x``
    sharing the body ``x``: typed under each binder, ``x`` has that
    binder's domain."""
    x = EVar(0)
    f1 = ELam("Type", "Type", EVar(2), "x", EVar(3), x)
    cc = [EPi("Type", "Type", EVar(2 + d), "y", EVar(3 + d)) for d in (0, 1)]
    f2 = ELam("Type", "Type", cc[0], "x", cc[1], x)
    f2g = EApp("Type", "Type", cc[0], "x", cc[1], f2, EVar(0))
    m = EApp("Type", "Type", EVar(2), "x", EVar(3), f1,
             EApp("Type", "Type", EVar(2), "y", EVar(3), f2g, EVar(1)))
    got = same(epts_infer, ref.epts_infer, SYSTEM_F, CTX, m)
    assert got[0] == repr(EVar(2))


def test_one_left_object_against_two_right_objects():
    s = Lam("x", Cons("U@Type"), Var(0))
    for a, b in ((App(s, s), App(s, Lam("x", Cons("U@Type"), Var(1)))),
                 (App(s, s), App(s, Cons("c0")))):
        for p, q in ((a, b), (b, a)):
            assert not hidden_equiv(SF_ENC, p, q)
            assert not ref.tree_hidden_equiv(SF_ENC, p, q)


def test_one_left_annotation_against_two_right_annotations():
    ann = Cons("U@Type")
    a = App(Lam("x", ann, Var(0)), Lam("y", ann, Var(0)))
    b = App(Lam("x", ann, Var(0)), Lam("y", Cons("U@Kind"), Var(0)))
    for p, q in ((a, b), (b, a)):
        assert not hidden_equiv(SF_ENC, p, q)
        assert not ref.tree_hidden_equiv(SF_ENC, p, q)
    tidy = Lam("x", Cons("El@Kind", (Cons("u@Type"),)), Var(0))
    assert hidden_equiv(SF_ENC, App(tidy, tidy), App(Lam("x", ann, Var(0)), tidy))


# --- work on the depth term -------------------------------------------------------


@pytest.fixture(scope="module")
def depth_image():
    """The depth term at n = 200 of ``scripts/depth_scaling.py``, elaborated,
    with its image, which is normal."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 8000))
    enc = generate(load_sorts("systemf").finite)
    m = elaborate(enc.spec, EptsContext(), DEPTH_SCALING.depth_term(200))
    yield enc, m, translate(enc, m)
    sys.setrecursionlimit(limit)


def test_the_redex_search_calls_the_root_once_per_object(depth_image):
    enc, _, img = depth_image
    beta = _rule_root(enc.theory, {BETA})
    calls = []

    def counting(u):
        calls.append(u)
        return beta(u)

    assert first_redex(counting, img, NodeMemo()) is None
    assert len(calls) == len({id(u) for u in calls}) <= distinct_nodes(img)


def test_normalize_searches_no_clean_object_twice():
    """Every corpus image under the simulation labels: the root runs more
    than once in one normalization only on node objects that hold a
    redex.  The objects stay alive in ``calls``, so their ids stay theirs."""
    for case in CASES:
        enc = generate(case.spec)
        root = _rule_root(enc.theory, enc.simulation_labels())
        ctx = elaborate_context(case.spec, case.file.assumes)
        for j in case.file.judgments:
            calls = {}

            def counting(u):
                calls.setdefault(id(u), [u, 0])[1] += 1
                return root(u)

            list(normalize(counting, translate(enc, elaborate(case.spec, ctx, j.term))))
            again = [u for u, n in calls.values() if n > 1]
            assert all(next(ref.redexes(root, u), None) is not None for u in again)


def test_invert_recovers_no_more_objects_than_the_image(depth_image):
    enc, m, img = depth_image
    back = invert(enc, img)
    assert back == m
    assert distinct_nodes(back) <= distinct_nodes(img)
