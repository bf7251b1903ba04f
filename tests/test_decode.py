"""Inversion: recognizing, undoing, and conservatively recovering source terms."""

import random

import pytest

from pimod.decode import (InvertibleForm, adequacy_legs, adequacy_roundtrip,
                          conservative_invert, hidden_equiv, invert, recognize)
from pimod.encode import EncodingTheory, generate_finite, translate, translate_ctx
from pimod.epts import (EApp, ELam, EPi, ESort, EVar, EptsContext, PApp, PLam,
                        PPi, PSort, PVar, elaborate, epts_infer)
from pimod.errors import (EptsCheckFailed, FuelExhausted,
                          InternalSoundnessError, NotInvertible, TypeMismatch)
from pimod.kernel import infer
from pimod.rewrite import nf
from pimod.terms import TYPE, App, Cons, Declaration, Lam, Var
from systems import MLTT_INT, PID, POLY, SYSTEM_F, SYSTEM_F_INT
from termgen import beta_expand
from test_encode import MLTT_ENC, SF_ENC, SF_INT_ENC, finite_id_image

CTX = EptsContext().extend("C", ESort("Type")).extend("c", EVar(0))


def id_applied():
    return elaborate(SYSTEM_F, CTX, PApp(PApp(PID, PVar(1)), PVar(0)))


class TestRecognize:
    def test_core_forms(self):
        assert recognize(SF_ENC, Var(3)) == InvertibleForm("var", (), (3,))
        assert recognize(SF_ENC, Cons("u@Type")) == \
            InvertibleForm("sort", ("Type",), ())

        img = finite_id_image()
        form = recognize(SF_ENC, img)
        assert form is not None
        assert form.tag == "abs" and form.sorts == ("Kind", "Type")

        redex = App(Lam("w", TYPE, Var(0)), Cons("u@Type"))
        assert recognize(SF_ENC, redex).tag == "redex"

    def test_internalized_sort_arguments_are_resolved(self):
        t = Cons("u", (Cons("type"),))
        assert recognize(SF_INT_ENC, t) == InvertibleForm("sort", ("Type",), ())
        # an equivalent but unevaluated index still resolves
        t2 = Cons("u", (Cons("Ax", (Cons("type"),)),))
        assert recognize(SF_INT_ENC, t2) == InvertibleForm("sort", ("Kind",), ())
        # El is a decoder, not part of the term grammar
        assert recognize(SF_INT_ENC, Cons("El", (Cons("kind"), t))) is None

    def test_unnamed_sort_value_is_not_recognized(self):
        four = Cons("s", (Cons("s", (Cons("s", (Cons("s", (Cons("z"),)),)),)),))
        assert recognize(MLTT_ENC, Cons("u", (four,))) is None

    def test_non_image_terms(self):
        assert recognize(SF_ENC, TYPE) is None
        assert recognize(SF_ENC, Cons("U@Type")) is None
        assert recognize(SF_ENC, Cons("El@Type", (Var(0),))) is None
        assert recognize(SF_ENC, Lam("x", TYPE, Var(0))) is None
        assert recognize(SF_ENC, App(Var(0), Var(1))) is None


class TestInvert:
    def test_left_inverse_on_images(self):
        for m in (elaborate(SYSTEM_F, EptsContext(), PID),
                  elaborate(SYSTEM_F, CTX, POLY),
                  id_applied(),
                  elaborate(SYSTEM_F, CTX,
                            PPi("B", PSort("Type"),
                                PPi("y", PVar(0), PVar(3))))):
            assert invert(SF_ENC, translate(SF_ENC, m)) == m

    def test_left_inverse_internalized(self):
        pid0 = PLam("A", PSort("0"), PLam("x", PVar(0), PVar(0)))
        m = elaborate(MLTT_INT, EptsContext(), pid0)
        assert invert(MLTT_ENC, translate(MLTT_ENC, m)) == m
        m2 = elaborate(SYSTEM_F_INT, EptsContext(), PID)
        assert invert(SF_INT_ENC, translate(SF_INT_ENC, m2)) == m2

    def test_wrapper_redexes_are_contracted(self):
        img = translate(SF_ENC, id_applied())
        wrapped = App(Lam("w", infer(SF_ENC.theory, translate_ctx(SF_ENC, CTX), img),
                          Var(0)), img)
        assert invert(SF_ENC, wrapped) == id_applied()

    def test_not_invertible(self):
        for bad in (TYPE, Cons("U@Type"), Cons("El@Type", (Var(0),)),
                    Lam("x", TYPE, Var(0))):
            with pytest.raises(NotInvertible):
                invert(SF_ENC, bad)


class TestHiddenEquiv:
    def test_annotations_may_differ_up_to_conversion(self):
        img = finite_id_image()
        tidied = nf(SF_ENC.theory, img)   # u-red rewrites inside annotations
        assert img != tidied
        assert hidden_equiv(SF_ENC, img, tidied)
        assert hidden_equiv(SF_ENC, tidied, img)

    def test_skeletons_must_agree(self):
        a = Cons("abs@Type@Type", (Var(0), Lam("x", TYPE, Var(1)),
                                   Lam("x", TYPE, Var(0))))
        b = Cons("abs@Type@Type", (Var(0), Lam("x", TYPE, Var(1)),
                                   Lam("x", TYPE, Var(1))))
        assert not hidden_equiv(SF_ENC, a, b)
        assert not hidden_equiv(SF_ENC, a, Cons("u@Type"))

    def test_inconvertible_annotations_fail(self):
        a = Lam("x", Cons("U@Type"), Var(0))
        b = Lam("x", Cons("U@Kind"), Var(0))
        assert not hidden_equiv(SF_ENC, a, b)
        # but El_Kind(u_Type) ~ U_Type is fine
        c = Lam("x", Cons("El@Kind", (Cons("u@Type"),)), Var(0))
        d = Lam("x", Cons("U@Type"), Var(0))
        assert hidden_equiv(SF_ENC, c, d)


class TestConservativeInvert:
    def test_plain_image_round_trips(self):
        m = id_applied()
        a = epts_infer(SYSTEM_F, CTX, m)
        got = conservative_invert(SF_ENC, CTX, translate(SF_ENC, m), a)
        assert got == m

    def test_beta_expanded_images_round_trip(self):
        rng = random.Random(41)
        m = id_applied()
        a = epts_infer(SYSTEM_F, CTX, m)
        img = translate(SF_ENC, m)
        dctx = translate_ctx(SF_ENC, CTX)
        for k in range(1, 6):
            fat = beta_expand(rng, SF_ENC.theory, dctx, img, wraps=k)
            assert fat != img
            got = conservative_invert(SF_ENC, CTX, fat, a)
            assert got == m

    def test_expansion_internalized(self):
        rng = random.Random(43)
        pid0 = PLam("A", PSort("0"), PLam("x", PVar(0), PVar(0)))
        m = elaborate(MLTT_INT, EptsContext(), pid0)
        a = epts_infer(MLTT_INT, EptsContext(), m)
        img = translate(MLTT_ENC, m)
        fat = beta_expand(rng, MLTT_ENC.theory, translate_ctx(MLTT_ENC, EptsContext()),
                          img, wraps=2)
        assert conservative_invert(MLTT_ENC, EptsContext(), fat, a) == m

    def test_ill_typed_input_is_a_user_error(self):
        with pytest.raises(TypeMismatch):
            conservative_invert(SF_ENC, CTX, Var(0), ESort("Type"))

    def test_opaque_inhabitant_is_an_internal_soundness_error(self):
        # an axiom of type U_Type is a perfectly well-typed framework term
        # that no source term maps to; the conservativity contract breaks
        # loudly rather than silently
        ext = EncodingTheory(
            SF_ENC.theory.extended(Declaration("mystery", (), Cons("U@Type"))),
            SF_ENC.spec, SF_ENC.mode, SF_ENC.roles,
            SF_ENC.beta_rules, SF_ENC.u_red_rules)
        with pytest.raises(InternalSoundnessError):
            conservative_invert(ext, EptsContext(), Cons("mystery"), ESort("Type"))
        with pytest.raises(NotInvertible):
            conservative_invert(ext, EptsContext(), Cons("mystery"), ESort("Type"))

    def test_fuel_is_respected(self):
        m = id_applied()
        a = epts_infer(SYSTEM_F, CTX, m)
        with pytest.raises(FuelExhausted):
            conservative_invert(SF_ENC, CTX, translate(SF_ENC, m), a, fuel=2)


class TestAdequacyRoundtrip:
    def test_clean_on_normal_and_reducible_terms(self):
        assert adequacy_roundtrip(SF_ENC, EptsContext(),
                                  elaborate(SYSTEM_F, EptsContext(), PID)) == []
        assert adequacy_roundtrip(SF_ENC, CTX, id_applied()) == []
        pid0 = PLam("A", PSort("0"), PLam("x", PVar(0), PVar(0)))
        assert adequacy_roundtrip(MLTT_ENC, EptsContext(),
                                  elaborate(MLTT_INT, EptsContext(), pid0)) == []

    def test_which_legs_apply_depends_on_reducibility(self):
        normal = elaborate(SYSTEM_F, EptsContext(), PID)
        assert adequacy_legs(SF_ENC, EptsContext(), normal) == [
            ("image-ill-typed", None), ("not-left-inverse", None),
            ("image-not-normal", None)]
        assert adequacy_legs(SF_ENC, CTX, id_applied()) == [
            ("image-ill-typed", None), ("not-left-inverse", None),
            ("trace-mismatch", None)]

    def test_missing_role_table_breaks_inversion(self):
        roles = dict(SF_ENC.roles)
        del roles["abs@Kind@Type"]
        broken = EncodingTheory(SF_ENC.theory, SF_ENC.spec, "finite", roles,
                                SF_ENC.beta_rules, SF_ENC.u_red_rules)
        m = elaborate(SYSTEM_F, EptsContext(), PID)
        assert [d.code for d in adequacy_roundtrip(broken, EptsContext(), m)] == \
            ["not-left-inverse"]

    def test_overeager_simulation_labels_are_detected(self):
        noisy = EncodingTheory(SF_ENC.theory, SF_ENC.spec, "finite",
                               SF_ENC.roles,
                               SF_ENC.beta_rules + SF_ENC.u_red_rules,
                               SF_ENC.u_red_rules)
        m = elaborate(SYSTEM_F, EptsContext(), PID)
        assert [d.code for d in adequacy_roundtrip(noisy, EptsContext(), m)] == \
            ["image-not-normal"]

    def test_missing_beta_rule_is_a_trace_mismatch(self):
        partial = EncodingTheory(SF_ENC.theory, SF_ENC.spec, "finite",
                                 SF_ENC.roles, ("beta@Type@Type",),
                                 SF_ENC.u_red_rules)
        diags = adequacy_roundtrip(partial, CTX, id_applied())
        assert [d.code for d in diags] == ["trace-mismatch"]
        assert "beta@Kind@Type" in diags[0].message


class TestErrorTaxonomy:
    def test_internal_errors_are_not_user_errors(self):
        assert issubclass(NotInvertible, InternalSoundnessError)
        assert issubclass(EptsCheckFailed, InternalSoundnessError)
        assert not issubclass(TypeMismatch, InternalSoundnessError)
