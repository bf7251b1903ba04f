"""Inversion: reading images back, and conservatively recovering source terms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pimod.decode import (adequacy_legs, adequacy_roundtrip, conservative_invert,
                          hidden_equiv, invert)
from pimod import encode
from pimod.encode import (INTERNAL_CORE, EncodingTheory, generate, generate_finite,
                          translate, translate_ctx)
from pimod.epts import (EApp, ELam, EPi, ESort, EVar, EptsContext, PApp, PLam,
                        PPi, PSort, PVar, elaborate, elaborate_context, epts_infer)
from pimod.errors import (EptsCheckFailed, FuelExhausted,
                          InternalSoundnessError, NotInvertible, TypeMismatch)
from pimod.kernel import infer
from pimod.rewrite import DEFAULT_FUEL, Fuel, nf, step
from pimod.syntax import render
from pimod.terms import TYPE, App, Cons, Declaration, Lam, Var, subterms
import reference
from strategies import HINTS, dk_terms, epts_terms
from systems import MLTT_INT, PID, POLY, SYSTEM_F, SYSTEM_F_INT, extended, load_case
from termgen import beta_expand
from test_encode import MLTT_ENC, SF_ENC, SF_INT_ENC, finite_id_image

CTX = EptsContext().extend("C", ESort("Type")).extend("c", EVar(0))


def id_applied():
    return elaborate(SYSTEM_F, CTX, PApp(PApp(PID, PVar(1)), PVar(0)))


class TestRecognize:
    """Which framework terms ``invert`` reads as which production."""

    def test_core_forms(self):
        assert invert(SF_ENC, Var(3)) == EVar(3)
        assert invert(SF_ENC, Cons("u@Type")) == ESort("Type")

        back = invert(SF_ENC, finite_id_image())
        assert type(back) is ELam and (back.s1, back.s2) == ("Kind", "Type")

        u = Cons("u@Type")
        redex = App(Lam("w", infer(SF_ENC.theory, translate_ctx(SF_ENC, EptsContext()), u),
                        Var(0)), u)
        assert conservative_invert(SF_ENC, EptsContext(), redex, ESort("Kind")) == ESort("Type")

    def test_redexes_are_outside_the_grammar(self):
        """``invert`` reads images only; ``conservative_invert`` contracts
        redexes before it inverts."""
        u = Cons("u@Type")
        for ann in (TYPE, infer(SF_ENC.theory, translate_ctx(SF_ENC, EptsContext()), u)):
            with pytest.raises(NotInvertible):
                invert(SF_ENC, App(Lam("w", ann, Var(0)), u))

    def test_internalized_sort_arguments_are_resolved(self):
        t = Cons("u", (Cons("type"),))
        assert invert(SF_INT_ENC, t) == ESort("Type")
        # an equivalent but unevaluated index still resolves
        t2 = Cons("u", (Cons("Ax", (Cons("type"),)),))
        assert invert(SF_INT_ENC, t2) == ESort("Kind")
        # El is a decoder, not part of the term grammar
        with pytest.raises(NotInvertible):
            invert(SF_INT_ENC, Cons("El", (Cons("kind"), t)))

    def test_unnamed_sort_value_is_not_recognized(self):
        four = Cons("s", (Cons("s", (Cons("s", (Cons("s", (Cons("z"),)),)),)),))
        with pytest.raises(NotInvertible):
            invert(MLTT_ENC, Cons("u", (four,)))

    def test_non_image_terms(self):
        for bad in (TYPE, Cons("U@Type"), Cons("El@Type", (Var(0),)),
                    Lam("x", TYPE, Var(0)), App(Var(0), Var(1))):
            with pytest.raises(NotInvertible):
                invert(SF_ENC, bad)


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
        a = epts_infer(SYSTEM_F, CTX, id_applied())
        assert conservative_invert(SF_ENC, CTX, wrapped, a) == id_applied()
        with pytest.raises(NotInvertible):
            invert(SF_ENC, wrapped)

    @pytest.mark.parametrize("case", ["finite", "internalized"])
    def test_variables_are_the_images_own(self, case):
        # a variable is its own image, and inversion returns the image's
        # variable: the source's objects pass through both directions
        case = load_case("systemf", case)
        enc = generate(case.spec)
        ctx = elaborate_context(case.spec, case.file.assumes)
        for j in case.file.judgments:
            m = elaborate(case.spec, ctx, j.term)
            img = translate(enc, m)
            back = invert(enc, img)
            assert back == m
            ids = {id(u) for u, _ in subterms(img) if type(u) is Var}
            assert ids <= {id(u) for u, _ in subterms(m) if type(u) is Var}
            for u, _ in subterms(back):
                if type(u) is Var:
                    assert id(u) in ids
                else:
                    assert type(u) in (EPi, ELam, EApp) or (type(u) is Cons and not u.args)

    def test_not_invertible(self):
        for bad in (TYPE, Cons("U@Type"), Cons("El@Type", (Var(0),)),
                    Lam("x", TYPE, Var(0))):
            with pytest.raises(NotInvertible):
                invert(SF_ENC, bad)


ENCODINGS = pytest.mark.parametrize("enc", [SF_ENC, SF_INT_ENC],
                                    ids=["finite", "internalized"])

# internalized sort arguments: named, equal to a named one after
# rewriting, and stuck
SORT_TERMS = (Cons("type"), Cons("kind"), Cons("Ax", (Cons("type"),)),
              Cons("Ru", (Cons("kind"), Cons("type"))), Cons("Ax", (Cons("kind"),)))


def family_terms(enc):
    """Framework terms built from images and the encoding's own constant
    families: members laid out as ``translate`` lays them out around
    arbitrary subterms, members with payloads of any shape, and redexes."""
    def shaped(role, sorts, h, a, b, m, n):
        def lam(body):
            return Lam(h, enc.family("El", sorts[:1], (a,)), body)
        payload = {"u": (), "Prod": (a, lam(b)), "abs": (a, lam(b), lam(m)),
                   "app": (a, lam(b), m, n)}[role]
        return enc.family(role, sorts[:INTERNAL_CORE[role]], payload)

    def member(name, sorts, payload):
        if enc.mode == "finite":
            return Cons(name, tuple(payload))
        return Cons(name, sorts[:INTERNAL_CORE[name]] + tuple(payload))

    def extend(ch):
        sort = st.sampled_from(("Type", "Kind"))
        return st.one_of(
            st.builds(shaped, st.sampled_from(("u", "Prod", "abs", "app")),
                      st.tuples(sort, sort), HINTS, ch, ch, ch, ch),
            st.builds(member, st.sampled_from(sorted(enc.roles)),
                      st.tuples(st.sampled_from(SORT_TERMS), st.sampled_from(SORT_TERMS)),
                      st.lists(ch, max_size=4)),
            st.builds(App, ch, ch),
            st.builds(Lam, HINTS, ch, ch))

    images = epts_terms(sorts=("Type",), max_leaves=4).map(lambda m: translate(enc, m))
    leaves = st.one_of(st.builds(Var, st.integers(0, 2)), st.just(TYPE), images)
    return st.recursive(leaves, extend, max_leaves=10)


NEAR_IMAGES = {enc.mode: st.one_of(dk_terms(), family_terms(enc))
               for enc in (SF_ENC, SF_INT_ENC)}


def outcome(invert_, enc, t):
    """The inverted term with its printed form (hints included), or the
    failure with its message (which names the offending subterm)."""
    try:
        m = invert_(enc, t)
    except NotInvertible as e:
        return "NotInvertible", str(e)
    return m, render(m)


class TestAgainstReference:
    """``translate`` and ``invert`` against the versions that went through
    one wrapper per family and through ``recognize``."""

    @ENCODINGS
    @given(m=epts_terms())
    def test_translate_writes_the_reference_image(self, enc, m):
        img = translate(enc, m)
        want = reference.translate(enc, m)
        assert img == want and render(img) == render(want)

    @ENCODINGS
    @given(m=epts_terms(sorts=("Type",)))  # Kind has no universe code
    def test_invert_undoes_translate(self, enc, m):
        back = invert(enc, translate(enc, m))
        assert back == m and render(back) == render(m)

    @ENCODINGS
    @settings(max_examples=200)
    @given(data=st.data())
    def test_invert_agrees_with_reference(self, enc, data):
        t = data.draw(NEAR_IMAGES[enc.mode])
        assert outcome(invert, enc, t) == outcome(reference.invert, enc, t)


def _well_applied(t) -> bool:
    """Is every declared constant in ``t`` applied at its arity, as in any
    term the kernel accepts?"""
    return all(type(u) is not Cons or SF_ENC.theory.decl(u.name) is None
               or SF_ENC.theory.decl(u.name).arity == len(u.args) for u, _ in subterms(t))


WELL_APPLIED = NEAR_IMAGES["finite"].filter(_well_applied)


def equiv_outcome(equiv, a, b):
    """``equiv`` on finite System F under a small budget, so that looping
    annotations run out alike."""
    try:
        return equiv(SF_ENC, a, b, 200)
    except FuelExhausted:
        return "exhausted"


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


    def test_sort_arguments_compare_by_their_value(self):
        # Ru(type, type) evaluates to type, so it names the sort Type
        # wherever a family member's sort argument stands
        tt = Cons("Ru", (Cons("type"), Cons("type")))
        lam = lambda s: Lam("x", Cons("El", (s, Var(0))), Var(1))
        written = Cons("Prod", (tt, Cons("type"), Var(0), lam(tt)))
        image = Cons("Prod", (Cons("type"), Cons("type"), Var(0), lam(Cons("type"))))
        assert written != image
        assert hidden_equiv(SF_INT_ENC, written, image)
        assert hidden_equiv(SF_INT_ENC, image, written)

    def test_sort_arguments_of_other_values_fail(self):
        # Ax(type) evaluates to kind: a member at (Kind, Type) is not one at
        # (Type, Type), however alike the rest
        kt = Cons("Prod", (Cons("Ax", (Cons("type"),)), Cons("type"), Var(0),
                           Lam("x", TYPE, Var(1))))
        tt = Cons("Prod", (Cons("type"), Cons("type"), Var(0), Lam("x", TYPE, Var(1))))
        assert not hidden_equiv(SF_INT_ENC, kt, tt)
        assert hidden_equiv(SF_INT_ENC, kt, Cons("Prod", (Cons("kind"), *tt.args[1:])))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_finite_mode_compares_names_as_before(self, data):
        # a finite member's name fixes its role and sorts, so reading them
        # through split gives the literal comparison of the reference
        t, other = data.draw(WELL_APPLIED), data.draw(WELL_APPLIED)
        r = step(SF_ENC.theory, t)
        for u in (t, other) + (() if r is None else (r[0],)):
            assert equiv_outcome(hidden_equiv, t, u) == equiv_outcome(reference.hidden_equiv, t, u)

    def test_recovered_terms_with_unevaluated_sorts(self):
        ctx = EptsContext().extend("C", ESort("Type"))
        tt = Cons("Ru", (Cons("type"), Cons("type")))
        prod = Cons("Prod", (tt, Cons("type"), Var(0),
                             Lam("x", Cons("El", (tt, Var(0))), Var(1))))
        pi = EPi("Type", "Type", EVar(0), "x", EVar(1))
        assert conservative_invert(SF_INT_ENC, ctx, prod, ESort("Type")) == pi
        lam = Cons("abs", (tt, Cons("type"), Var(0),
                           Lam("x", Cons("El", (Cons("type"), Var(0))), Var(1)),
                           Lam("x", Cons("El", (tt, Var(0))), Var(0))))
        assert conservative_invert(SF_INT_ENC, ctx, lam, pi) == \
            ELam("Type", "Type", EVar(0), "x", EVar(1), EVar(0))


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
            extended(SF_ENC.theory, Declaration("mystery", (), Cons("U@Type"))),
            SF_ENC.spec, SF_ENC.mode, SF_ENC.roles,
            SF_ENC.beta_rules)
        with pytest.raises(InternalSoundnessError):
            conservative_invert(ext, EptsContext(), Cons("mystery"), ESort("Type"))
        with pytest.raises(NotInvertible):
            conservative_invert(ext, EptsContext(), Cons("mystery"), ESort("Type"))

    def test_only_an_unnamed_sort_argument_is_normalized(self, monkeypatch):
        """Inversion reads a named sort argument, which is all an image
        carries, off the spec's names, and normalizes an unnamed one on its
        caller's budget."""
        case = load_case("systemf", "internalized")   # a spec of its own
        enc = generate(case.spec)
        ctx = elaborate_context(case.spec, case.file.assumes)
        j = next(j for j in case.file.judgments if j.name == "two_plus_one")
        m, a = elaborate(case.spec, ctx, j.term), elaborate(case.spec, ctx, j.type)
        img = translate(enc, m)
        normalized = []
        nf_ = encode.nf
        monkeypatch.setattr(encode, "nf", lambda theory, t, fuel=None:
                            normalized.append((t, fuel)) or nf_(theory, t, fuel=fuel))
        for _ in range(2):
            assert conservative_invert(enc, ctx, img, a) == m
        assert normalized == []
        # Ru(type, type) names Type only once normalized
        f = Fuel(DEFAULT_FUEL)
        tt = Cons("Ru", (Cons("type"), Cons("type")))
        prod = Cons("Prod", (tt, Cons("type"), Var(0),
                             Lam("x", Cons("El", (tt, Var(0))), Var(1))))
        c = EptsContext().extend("C", ESort("Type"))
        assert conservative_invert(enc, c, prod, ESort("Type"), f) == \
            EPi("Type", "Type", EVar(0), "x", EVar(1))
        assert normalized and all(t == tt and fuel is f for t, fuel in normalized)
        # with every sort argument named, inversion draws on its caller's budget only
        f = Fuel(DEFAULT_FUEL)
        built = []
        init = Fuel.__init__
        monkeypatch.setattr(Fuel, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        assert conservative_invert(enc, ctx, img, a, f) == m
        assert built == []

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
                                SF_ENC.beta_rules)
        m = elaborate(SYSTEM_F, EptsContext(), PID)
        assert [d.code for d in adequacy_roundtrip(broken, EptsContext(), m)] == \
            ["not-left-inverse"]

    def test_overeager_simulation_labels_are_detected(self):
        u_red = tuple(r.name for r in SF_ENC.theory.rules if r.name.startswith("u-red@"))
        noisy = EncodingTheory(SF_ENC.theory, SF_ENC.spec, "finite",
                               SF_ENC.roles, SF_ENC.beta_rules + u_red)
        m = elaborate(SYSTEM_F, EptsContext(), PID)
        assert [d.code for d in adequacy_roundtrip(noisy, EptsContext(), m)] == \
            ["image-not-normal"]

    def test_missing_beta_rule_is_a_trace_mismatch(self):
        partial = EncodingTheory(SF_ENC.theory, SF_ENC.spec, "finite",
                                 SF_ENC.roles, ("beta@Type@Type",))
        diags = adequacy_roundtrip(partial, CTX, id_applied())
        assert [d.code for d in diags] == ["trace-mismatch"]
        assert "beta@Kind@Type" in diags[0].message


class TestErrorTaxonomy:
    def test_internal_errors_are_not_user_errors(self):
        assert issubclass(NotInvertible, InternalSoundnessError)
        assert issubclass(EptsCheckFailed, InternalSoundnessError)
        assert not issubclass(TypeMismatch, InternalSoundnessError)
