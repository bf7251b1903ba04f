"""Stratification, rule-shape analyses, and the two erasures.

The oracle here is a from-scratch simply-typed-lambda evaluator
(`ssub`/`sstep`/`sreducts`): simulation claims about erased terms are
checked against independent reduction, never against the erasure's own
machinery.  The library never builds an erased term, so these claims
reduce the terms that ``reference.erase_term`` builds.  The library's
``stlc_check`` reads a framework term; a lambda term is given to it as a
framework term whose erasure is that term up to the redexes of the
vacuous binders, each abstraction annotated with ``c0``.
"""

import random

import pytest
from hypothesis import given

import reference as ref
from pimod.analysis import (STAR, Arrow, ConstantLevel, check_arity_preserving,
                            check_rules_well_formed, constant_level,
                            erase_context, erase_signature, erase_term,
                            erase_type, pi_const_name, pi_const_type,
                            pi_context, render_simple, stlc_check)
from pimod.errors import NotErasable, UnknownConstant
from pimod.rewrite import BETA, step
from pimod.terms import (KIND, TYPE, App, Cons, Declaration, DkContext, Lam,
                         Meta, Pi, RewriteRule, Theory, Var, subst)
from reference import SApp, SConst, SLam, SVar, mk_sapp, stlc_shift
from strategies import C0, as_framework, stlc_terms
from systems import extended
from termgen import GEN_THEORY, gen_judgment, gen_term, gen_type

N = Cons("N")
Z = Cons("z")


def s(t):
    return Cons("s", (t,))


def vec(n):
    return Cons("Vec", (n,))


VEC = Theory((
    Declaration("N", (), TYPE),
    Declaration("z", (), N),
    Declaration("s", (("n", N),), N),
    Declaration("Vec", (("n", N),), TYPE),
    Declaration("nil", (), vec(Z)),
    Declaration("cons", (("n", N), ("x", N), ("v", vec(Var(1)))), vec(s(Var(2)))),
), ())


# --- independent simply-typed-side evaluator ---------------------------------


def ssub(t, j, v):
    match t:
        case SVar(k):
            if k == j:
                return v
            return SVar(k - 1) if k > j else t
        case SApp(f, a):
            return SApp(ssub(f, j, v), ssub(a, j, v))
        case SLam(h, b):
            return SLam(h, ssub(b, j + 1, stlc_shift(v, 1)))
        case _:
            return t


def sstep(t):
    """One leftmost-outermost beta step, or None."""
    match t:
        case SApp(SLam(_, b), a):
            return ssub(b, 0, a)
        case SApp(f, a):
            r = sstep(f)
            if r is not None:
                return SApp(r, a)
            r = sstep(a)
            return None if r is None else SApp(f, r)
        case SLam(h, b):
            r = sstep(b)
            return None if r is None else SLam(h, r)
        case _:
            return None


def sreducts(t):
    """Every one-step reduct, any position."""
    out = []
    match t:
        case SApp(SLam(_, b), a):
            out.append(ssub(b, 0, a))
    match t:
        case SApp(f, a):
            out += [SApp(r, a) for r in sreducts(f)]
            out += [SApp(f, r) for r in sreducts(a)]
        case SLam(h, b):
            out += [SLam(h, r) for r in sreducts(b)]
    return out


def s_reaches(src, dst, depth=6):
    """Is ``dst`` reachable from ``src`` in at most ``depth`` beta steps?"""
    frontier, seen = {src}, {src}
    for _ in range(depth):
        if dst in frontier:
            return True
        frontier = {r for t in frontier for r in sreducts(t)} - seen
        if not frontier:
            break
        seen |= frontier
    return dst in seen


class TestClassify:
    def test_constant_level(self):
        assert constant_level(VEC, "Vec") is ConstantLevel.TYPE_LEVEL
        assert constant_level(VEC, "cons") is ConstantLevel.OBJECT_LEVEL
        with pytest.raises(UnknownConstant):
            constant_level(VEC, "ghost")

    def test_constant_level_walks_products(self):
        t = extended(VEC, Declaration("Rel", (), Pi("x", N, Pi("y", N, TYPE))))
        assert constant_level(t, "Rel") is ConstantLevel.TYPE_LEVEL


def el_prod_theory():
    """The traditional dependent-product encoding, written directly."""
    ty = Cons("Ty")
    el = lambda a: Cons("El", (a,))  # noqa: E731
    return Theory((
        Declaration("Ty", (), TYPE),
        Declaration("El", (("a", ty),), TYPE),
        Declaration("Nat", (), ty),
        Declaration("Prod", (("a", ty), ("b", Pi("x", el(Var(0)), ty))), ty),
    ), (
        RewriteRule("El", (Cons("Prod", (Meta("A"), Meta("B"))),),
                    Pi("x", el(Meta("A")), el(App(Meta("B"), Var(0)))),
                    name="el-prod"),
    ))


class TestRuleShapes:
    def test_object_level_rules_are_ignored(self):
        nat = Theory((
            Declaration("N", (), TYPE),
            Declaration("z", (), N),
            Declaration("p", (("m", N), ("n", N)), N),
        ), (RewriteRule("p", (Z, Meta("n")), Meta("n"), name="p-z"),))
        assert check_arity_preserving(nat) == []
        assert check_rules_well_formed(nat) == []

    def test_family_alias_preserves_arity(self):
        t = extended(
            VEC, Declaration("List", (("n", N),), TYPE),
            rules=(RewriteRule("List", (Meta("n"),), vec(Meta("n")), name="unfold"),))
        assert check_arity_preserving(t) == []
        assert check_rules_well_formed(t) == []

    def test_product_on_the_right_breaks_arity_preservation(self):
        diags = check_arity_preserving(el_prod_theory())
        assert len(diags) == 1
        d = diags[0]
        assert d.code == "arity-violation" and d.subject == "el-prod"
        assert d.data["lhs_erasure"] == "*"
        assert d.data["rhs_erasure"] == "* -> *"
        assert "head erasure changes from * to * -> *" in d.message
        assert isinstance(d.data["offending"], Pi)

    def test_but_the_same_rule_is_well_formed(self):
        assert check_rules_well_formed(el_prod_theory()) == []

    def test_escaping_the_family_grammar_fails_both(self):
        t = extended(
            VEC, Declaration("Weird", (("n", N),), TYPE),
            rules=(RewriteRule("Weird", (Meta("n"),), Meta("n"), name="leak"),))
        assert {d.code for d in check_arity_preserving(t)} == {"arity-violation"}
        assert {d.code for d in check_rules_well_formed(t)} == {"ill-formed-rule"}
        d = check_rules_well_formed(t)[0]
        assert "rhs_erasure" not in d.data  # a pattern variable has no erasure


class TestEraseType:
    def test_basic_laws(self):
        assert erase_type(VEC, TYPE) == STAR
        assert erase_type(VEC, N) == STAR
        assert erase_type(VEC, vec(Z)) == STAR
        assert erase_type(VEC, Pi("x", N, vec(Var(0)))) == Arrow(STAR, STAR)
        assert erase_type(VEC, Pi("f", Pi("x", N, N), N)) == \
            Arrow(Arrow(STAR, STAR), STAR)

    def test_applications_and_abstractions_erase_structurally(self):
        assert erase_type(VEC, App(Lam("x", N, vec(Var(0))), Z)) == STAR
        assert erase_type(VEC, Lam("x", N, Pi("y", N, N))) == Arrow(STAR, STAR)

    def test_not_erasable(self):
        for bad in (Var(0), KIND, Z, Meta("m")):
            with pytest.raises(NotErasable):
                erase_type(VEC, bad)

    def test_render(self):
        assert render_simple(Arrow(Arrow(STAR, STAR), STAR)) == "(* -> *) -> *"
        assert render_simple(Arrow(STAR, Arrow(STAR, STAR))) == "* -> * -> *"


class TestEraseTerm:
    def test_abstraction_keeps_annotation_alive(self):
        t = Lam("x", N, Var(0))
        assert ref.erase_term(VEC, t) == SApp(SLam("_z", SLam("x", SVar(0))), SConst("N"))
        assert stlc_check(erase_signature(VEC), [], erase_term(VEC, t), Arrow(STAR, STAR))
        # the annotation is typed: an unknown one fails the judgment
        assert not stlc_check({}, [], erase_term(VEC, t), Arrow(STAR, STAR))

    def test_product_routes_through_combinator(self):
        pis, ref_pis = set(), set()
        t = Pi("x", N, vec(Var(0)))
        erase_term(VEC, t, pis)
        assert ref.erase_term(VEC, t, ref_pis) == mk_sapp(
            SConst("pi*"), SConst("N"), SLam("x", SApp(SConst("Vec"), SVar(0))))
        assert pis == ref_pis == {STAR}
        assert pi_const_name(STAR) == "pi*"
        assert pi_const_type(STAR) == Arrow(STAR, Arrow(Arrow(STAR, STAR), STAR))

    def test_higher_order_domain_gets_its_own_combinator(self):
        pis = set()
        erase_term(VEC, Pi("f", Pi("x", N, N), N), pis)
        assert Arrow(STAR, STAR) in pis
        assert pi_const_name(Arrow(STAR, STAR)) == "pi* -> *"

    def test_root_beta_is_exactly_two_erased_steps(self):
        rng = random.Random(5)
        for _ in range(50):
            ctx = DkContext()
            dom = gen_type(rng, ctx, 1)
            arg = gen_term(rng, ctx, dom, 2)
            from pimod.terms import shift
            goal = gen_type(rng, ctx, 1)
            body = gen_term(rng, ctx.extend("u", dom), shift(goal, 1), 2)
            redex = App(Lam("u", dom, body), arg)

            e = ref.erase_term(GEN_THEORY, redex)
            one = sstep(e)
            two = sstep(one)
            assert two == ref.erase_term(GEN_THEORY, subst(body, 0, arg))

    def test_any_framework_beta_step_is_simulated(self):
        rng = random.Random(17)
        hits = 0
        while hits < 25:
            ctx, t, _ = gen_judgment(rng, depth=3)
            r = step(GEN_THEORY, t, labels={BETA})
            if r is None:
                continue
            hits += 1
            assert s_reaches(ref.erase_term(GEN_THEORY, t),
                             ref.erase_term(GEN_THEORY, r[0]))


class TestSignatureAndContext:
    def test_erase_signature_frozen(self):
        assert erase_signature(VEC) == {
            "N": STAR,
            "z": STAR,
            "s": Arrow(STAR, STAR),
            "Vec": Arrow(STAR, STAR),
            "nil": STAR,
            "cons": Arrow(STAR, Arrow(STAR, Arrow(STAR, STAR))),
        }

    def test_unerasable_declarations_are_skipped(self):
        t = extended(VEC, Declaration("w", (), KIND))
        assert "w" not in erase_signature(t)
        assert "Vec" in erase_signature(t)

    def test_erase_context_is_oldest_first(self):
        ctx = DkContext().extend("n", N).extend("v", vec(Var(0)))
        assert erase_context(VEC, ctx) == [STAR, STAR]

    def test_pi_context(self):
        assert pi_context([STAR]) == \
            {"pi*": Arrow(STAR, Arrow(Arrow(STAR, STAR), STAR))}


CONSTS = {"f": Arrow(STAR, STAR), "a": STAR}


def rehinted(t):
    """A fresh copy of ``t`` whose binders all carry other hints."""
    match t:
        case SApp(f, a):
            return SApp(rehinted(f), rehinted(a))
        case SLam(h, b):
            return SLam(h + "'", rehinted(b))
        case SVar(k):
            return SVar(k)
        case SConst(c):
            return SConst(c)


class TestStlcTermHash:
    @given(stlc_terms(), stlc_terms())
    def test_the_cached_hash_agrees_with_equality(self, a, b):
        """Hints do not count, and equal terms hash alike whichever of them
        was hashed first."""
        c = rehinted(a)
        assert c == a and c is not a
        assert hash(c) == hash(a) == hash(rehinted(a))
        assert len({a, c, b}) == (1 if a == b else 2)


def typable(consts, ctx, t, sigma):
    """The library's verdict on the erasure of ``t``, with ``c0 : *``."""
    return stlc_check({"c0": STAR, **consts}, ctx, erase_term(VEC, t), sigma)


class TestStlcCheck:
    def test_identity(self):
        i = Lam("x", C0, Var(0))
        assert typable({}, [], i, Arrow(STAR, STAR))
        assert typable({}, [], i, Arrow(Arrow(STAR, STAR), Arrow(STAR, STAR)))
        assert not typable({}, [], i, STAR)

    def test_church_numeral(self):
        two = Lam("f", C0, Lam("x", C0, App(Var(1), App(Var(1), Var(0)))))
        assert typable({}, [], two, Arrow(Arrow(STAR, STAR), Arrow(STAR, STAR)))

    def test_self_application_fails_occurs_check(self):
        w = Lam("x", C0, App(Var(0), Var(0)))
        assert not typable({}, [], w, STAR)
        assert not typable({}, [], w, Arrow(STAR, STAR))

    def test_constants_and_variables(self):
        assert typable(CONSTS, [], App(Cons("f"), Cons("a")), STAR)
        assert not typable(CONSTS, [], App(Cons("a"), Cons("a")), STAR)
        assert not typable(CONSTS, [], Cons("ghost"), STAR)
        assert not typable(CONSTS, [], Var(0), STAR)

    def test_context_is_oldest_first(self):
        ctx = [STAR, Arrow(STAR, STAR)]
        assert typable({}, ctx, Var(0), Arrow(STAR, STAR))
        assert typable({}, ctx, Var(1), STAR)
        assert typable({}, ctx, App(Var(0), Var(1)), STAR)
        assert not typable({}, ctx, Var(0), STAR)

    def test_a_shared_node_is_typed_at_each_occurrence(self):
        """One abstraction object, at ``* -> *`` and at ``(* -> *) -> * ->
        *``: each occurrence gets unknowns of its own, as in a tree copy."""
        consts = {"k": Arrow(STAR, Arrow(Arrow(STAR, STAR), STAR)), "a": STAR,
                  "f": Arrow(STAR, STAR)}

        def pair(i, j):
            return App(App(Cons("k"), App(i, Cons("a"))), App(j, Cons("f")))

        i = Lam("x", C0, Var(0))
        for t in (pair(i, i), pair(i, Lam("x", C0, Var(0)))):
            assert typable(consts, [], t, STAR)
            assert not typable(consts, [], t, Arrow(STAR, STAR))

    def test_erased_well_typed_terms_are_typable(self):
        rng = random.Random(23)
        sig = erase_signature(GEN_THEORY)
        for _ in range(40):
            ctx, t, ty = gen_judgment(rng, depth=4)
            pis = set()
            m = erase_term(GEN_THEORY, t, pis)
            consts = {**sig, **pi_context(pis)}
            assert stlc_check(consts, erase_context(GEN_THEORY, ctx), m,
                              erase_type(GEN_THEORY, ty))

    def test_typability_survives_erased_reduction(self):
        rng = random.Random(29)
        sig = erase_signature(GEN_THEORY)
        done = 0
        while done < 20:
            ctx, t, ty = gen_judgment(rng, depth=3)
            pis = set()
            m = ref.erase_term(GEN_THEORY, t, pis)
            r = sstep(m)
            if r is None:
                continue
            done += 1
            consts = {**sig, **pi_context(pis), "c0": STAR}
            assert stlc_check(consts, erase_context(GEN_THEORY, ctx),
                              erase_term(GEN_THEORY, as_framework(r)),
                              erase_type(GEN_THEORY, ty))
