"""Framework type checker: telescopes, conversion, dependent families."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pimod.errors import (ArityMismatch, FuelExhausted, KindHasNoType,
                          NotAProduct, TypeMismatch, UnboundVariable,
                          UnknownConstant)
from pimod.kernel import check, check_context, check_signature, infer
from pimod.rewrite import convertible
from pimod.terms import (KIND, TYPE, App, Cons, Declaration, DkContext, Lam,
                         Meta, Pi, RewriteRule, Theory, Var)
from systems import extended
from termgen import GEN_THEORY, gen_judgment

N = Cons("N")
Z = Cons("z")


def s(t):
    return Cons("s", (t,))


def plus(a, b):
    return Cons("plus", (a, b))


def vec(n):
    return Cons("Vec", (n,))


VEC = Theory((
    Declaration("N", (), TYPE),
    Declaration("z", (), N),
    Declaration("s", (("n", N),), N),
    Declaration("plus", (("m", N), ("n", N)), N),
    Declaration("Vec", (("n", N),), TYPE),
    Declaration("nil", (), vec(Z)),
    # length index refers to the earlier telescope entry
    Declaration("cons", (("n", N), ("x", N), ("v", vec(Var(1)))), vec(s(Var(2)))),
), (
    RewriteRule("plus", (Z, Meta("n")), Meta("n"), name="plus-z"),
    RewriteRule("plus", (s(Meta("m")), Meta("n")),
                s(plus(Meta("m"), Meta("n"))), name="plus-s"),
))

EMPTY = DkContext()


class TestInference:
    def test_signature_is_well_typed(self):
        assert check_signature(VEC) == []

    def test_constants_and_sorts(self):
        assert infer(VEC, EMPTY, Z) == N
        assert infer(VEC, EMPTY, N) == TYPE
        assert infer(VEC, EMPTY, TYPE) == KIND

    def test_telescope_substitution_accumulates(self):
        one = cons = Cons("cons", (Z, Z, Cons("nil")))
        assert infer(VEC, EMPTY, one) == vec(s(Z))
        two = Cons("cons", (s(Z), Z, cons))
        assert infer(VEC, EMPTY, two) == vec(s(s(Z)))

    def test_telescope_argument_checked_up_to_conversion(self):
        # nil : Vec(z) also has type Vec(plus(z, z)) by the rules
        t = Cons("cons", (plus(Z, Z), Z, Cons("nil")))
        assert infer(VEC, EMPTY, t) == vec(s(plus(Z, Z)))

    def test_lambda_and_application(self):
        f = Lam("x", N, s(Var(0)))
        assert infer(VEC, EMPTY, f) == Pi("x", N, N)
        assert infer(VEC, EMPTY, App(f, Z)) == N

    def test_dependent_application_substitutes(self):
        f = Lam("n", N, Cons("nil"))
        # checking against a codomain that mentions the variable
        check(VEC, EMPTY, f, Pi("n", N, vec(plus(Z, Z))))

    def test_product_formation(self):
        assert infer(VEC, EMPTY, Pi("x", N, N)) == TYPE
        assert infer(VEC, EMPTY, Pi("x", N, TYPE)) == KIND

    def test_variables_from_context(self):
        ctx = EMPTY.extend("n", N).extend("v", vec(Var(0)))
        assert infer(VEC, ctx, Var(1)) == N
        assert infer(VEC, ctx, Var(0)) == vec(Var(1))


class TestConversionInJudgments:
    def test_check_reduces_expected_type(self):
        check(VEC, EMPTY, Cons("nil"), vec(plus(Z, Z)))

    def test_check_mixes_beta_and_rules(self):
        ty = vec(App(Lam("m", N, plus(Var(0), Z)), s(Z)))
        t = Cons("cons", (Z, Z, Cons("nil")))
        check(VEC, EMPTY, t, ty)

    def test_mismatch_reports_whnf_sides(self):
        with pytest.raises(TypeMismatch) as e:
            check(VEC, EMPTY, Cons("nil"), vec(s(Z)))
        assert e.value.expected == vec(s(Z))
        assert e.value.actual == vec(Z)


class TestErrors:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            infer(VEC, EMPTY, Var(0))

    def test_meta_is_not_an_object(self):
        with pytest.raises(UnboundVariable):
            infer(VEC, EMPTY, Meta("m"))

    def test_kind_has_no_type(self):
        with pytest.raises(KindHasNoType):
            infer(VEC, EMPTY, KIND)

    def test_unknown_constant(self):
        with pytest.raises(UnknownConstant):
            infer(VEC, EMPTY, Cons("ghost"))

    def test_arity_is_strict(self):
        with pytest.raises(ArityMismatch):
            infer(VEC, EMPTY, Cons("s", ()))
        with pytest.raises(ArityMismatch):
            infer(VEC, EMPTY, Cons("z", (Z,)))

    def test_not_a_product(self):
        with pytest.raises(NotAProduct):
            infer(VEC, EMPTY, App(Z, Z))

    def test_binder_annotation_must_be_a_type(self):
        with pytest.raises(TypeMismatch):
            infer(VEC, EMPTY, Lam("x", Z, Var(0)))
        # domains of kind sort are not abstractable either
        with pytest.raises(TypeMismatch):
            infer(VEC, EMPTY, Lam("x", TYPE, Var(0)))

    def test_body_may_not_be_a_kind(self):
        with pytest.raises(KindHasNoType):
            infer(VEC, EMPTY, Lam("x", N, TYPE))

    def test_fuel_bounds_conversion(self):
        loop = extended(
            VEC, Declaration("omega", (), N),
            rules=(RewriteRule("omega", (), Cons("omega"), name="spin"),))
        # conversion must descend into the spinning index position
        with pytest.raises(FuelExhausted):
            check(loop, EMPTY, Cons("nil"), vec(Cons("omega")),
                  fuel=30)

    def test_exhausted_budget_is_not_a_diagnostic(self):
        # P's argument is checked against Vec(omega), so conversion spins
        p_nil = Cons("P", (Cons("nil"),))
        loop = extended(
            VEC, Declaration("omega", (), N),
            Declaration("P", (("v", vec(Cons("omega"))),), TYPE),
            rules=(RewriteRule("omega", (), Cons("omega"), name="spin"),))
        with pytest.raises(FuelExhausted):
            check_context(loop, EMPTY.extend("p", p_nil), fuel=30)
        with pytest.raises(FuelExhausted):
            check_signature(extended(loop, Declaration("q", (("p", p_nil),), TYPE)),
                            fuel=30)

    def test_error_message_carries_the_path(self):
        with pytest.raises(TypeMismatch) as e:
            infer(VEC, EMPTY, Cons("cons", (Z, N, Cons("nil"))))
        assert "argument 2 of 'cons'" in str(e.value)


class TestDiagnostics:
    def test_check_context_accepts_dependent_entries(self):
        ctx = EMPTY.extend("n", N).extend("v", vec(Var(0)))
        assert check_context(VEC, ctx) == []

    def test_check_context_flags_bad_entries(self):
        ctx = EMPTY.extend("x", Z).extend("x", N).extend("y", Cons("ghost"))
        codes = {d.code for d in check_context(VEC, ctx)}
        assert codes == {"not-a-type", "duplicate-name", "ill-typed-context"}

    def test_check_signature_flags_unsorted_result(self):
        bad = Theory(VEC.signature + (
            Declaration("w", (("x", Z),), N),), VEC.rules)
        codes = {d.code for d in check_signature(bad)}
        assert "not-a-type" in codes

    def test_trace_logs_every_judgment(self):
        log = []
        infer(VEC, EMPTY, App(Lam("x", N, Var(0)), Z), log=log)
        logged = [t for _, t, _ in log]
        assert Var(0) in logged and Z in logged
        names = [ns for ns, t, _ in log if t == Var(0)]
        assert names == [["x"]]


class TestGeneratedJudgments:
    """Type-directed random terms over a dependent theory stay checkable."""

    def test_generator_output_checks(self):
        rng = random.Random(2024)
        for _ in range(60):
            ctx, t, ty = gen_judgment(rng, depth=5)
            check(GEN_THEORY, ctx, t, ty)

    def test_inferred_type_is_convertible_to_target(self):
        rng = random.Random(7)
        for _ in range(40):
            ctx, t, ty = gen_judgment(rng, depth=4)
            assert convertible(GEN_THEORY, infer(GEN_THEORY, ctx, t), ty)
