"""Signature morphisms: homomorphic mapping, verification, and phi."""

import pytest

import reference as ref
from pimod.corpus import load_sorts
from pimod.encode import (generate, generate_finite, generate_internalized,
                          translate, translate_ctx)
from pimod.epts import EptsContext, PApp, PLam, PSort, PVar, elaborate
from pimod.errors import MissingBody, PimodError, UnrepresentableSort
from pimod.morphism import (TheoryMorphism, apply_morphism, build_phi,
                            verify_morphism)
from pimod.syntax import parse_sort_spec_file
from pimod.terms import (TYPE, App, Cons, Declaration, Lam, Meta, Pi,
                         RewriteRule, Theory, Var)
from systems import MLTT_FIN, MLTT_INT, PID, SYSTEM_F
from test_critical_pairs import tower_sorts
from test_decode import CTX, id_applied
from test_encode import MLTT_ENC, SF_ENC, SF_INT_ENC

SRC = Theory(
    (Declaration("N", (), TYPE),
     Declaration("z", (), Cons("N")),
     Declaration("s", (("x", Cons("N")),), Cons("N")),
     Declaration("f", (("x", Cons("N")),), Cons("N")),
     Declaration("pair", (("a", Cons("N")), ("b", Cons("N"))), Cons("N"))),
    (RewriteRule("f", (Cons("z"),), Cons("z"), name="f-z"),))


def _target(*rules):
    return Theory(
        (Declaration("M", (), TYPE),
         Declaration("o", (), Cons("M")),
         Declaration("succ", (("x", Cons("M")),), Cons("M")),
         Declaration("fD", (("x", Cons("M")),), Cons("M")),
         Declaration("gD", (("x", Cons("M")),), Cons("M")),
         Declaration("mk", (("a", Cons("M")), ("b", Cons("M"))), Cons("M"))),
        rules)


RENAME = {
    "N": Cons("M"),
    "z": Cons("o"),
    "s": Cons("succ", (Var(0),)),
    "f": Cons("fD", (Var(0),)),
    # deliberately argument-swapping: index 0 is the last telescope entry
    "pair": Cons("mk", (Var(0), Var(1))),
}


def rename_into(tgt):
    return TheoryMorphism(SRC, tgt, dict(RENAME))


class TestApplyMorphism:
    def test_homomorphic_on_all_constructors(self):
        mor = rename_into(_target())
        two = Cons("s", (Cons("s", (Cons("z"),)),))
        assert apply_morphism(mor, two) == \
            Cons("succ", (Cons("succ", (Cons("o"),)),))
        assert apply_morphism(mor, Lam("x", Cons("N"), Var(0))) == \
            Lam("x", Cons("M"), Var(0))
        assert apply_morphism(mor, Pi("x", Cons("N"), Cons("N"))) == \
            Pi("x", Cons("M"), Cons("M"))
        assert apply_morphism(mor, App(Var(1), TYPE)) == App(Var(1), TYPE)

    def test_metavariables_pass_through(self):
        mor = rename_into(_target())
        assert apply_morphism(mor, Cons("f", (Meta("X"),))) == \
            Cons("fD", (Meta("X"),))

    def test_body_indices_count_from_the_last_argument(self):
        mor = rename_into(_target())
        t = Cons("pair", (Cons("z"), Cons("s", (Cons("z"),))))
        assert apply_morphism(mor, t) == \
            Cons("mk", (Cons("succ", (Cons("o"),)), Cons("o")))

    def test_unmapped_constant(self):
        mor = TheoryMorphism(SRC, _target(), {})
        with pytest.raises(MissingBody):
            mor.image_of("z")
        with pytest.raises(MissingBody):
            apply_morphism(mor, Cons("z"))


class TestVerifyMorphism:
    def test_sound_renaming_verifies(self):
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("o"), name="fD-o"))
        assert verify_morphism(rename_into(tgt)) == []

    def test_rule_verified_through_a_longer_chain(self):
        tgt = _target(
            RewriteRule("fD", (Cons("o"),), Cons("gD", (Cons("o"),)), name="fD-o"),
            RewriteRule("gD", (Cons("o"),), Cons("o"), name="gD-o"))
        assert verify_morphism(rename_into(tgt)) == []

    def test_missing_image_for_declaration_and_rule(self):
        body = dict(RENAME)
        del body["z"]
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("o"), name="fD-o"))
        diags = verify_morphism(TheoryMorphism(SRC, tgt, body))
        assert {(d.code, d.subject) for d in diags} == \
            {("missing-image", "z"), ("missing-image", "f-z")}

    def test_unused_image_is_a_note(self):
        body = dict(RENAME)
        body["ghost"] = Cons("o")
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("o"), name="fD-o"))
        diags = verify_morphism(TheoryMorphism(SRC, tgt, body))
        assert [(d.code, d.subject, d.severity) for d in diags] == \
            [("unused-image", "ghost", "note")]

    def test_ill_typed_image(self):
        body = dict(RENAME)
        body["s"] = Cons("M")        # a type, not an inhabitant of M
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("o"), name="fD-o"))
        diags = verify_morphism(TheoryMorphism(SRC, tgt, body))
        assert [(d.code, d.subject) for d in diags] == [("image-ill-typed", "s")]

    def test_rule_not_preserved(self):
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("succ", (Cons("o"),)),
                                  name="fD-o"))
        diags = verify_morphism(rename_into(tgt))
        assert [(d.code, d.subject) for d in diags] == \
            [("rule-not-preserved", "f-z")]
        assert diags[0].data["start"] == Cons("fD", (Cons("o"),))
        assert diags[0].data["goal"] == Cons("o")

    def test_undecidable_within_budget_is_a_note(self):
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("fD", (Cons("o"),)),
                                  name="fD-spin"))
        diags = verify_morphism(rename_into(tgt), fuel=16)
        assert [(d.code, d.severity) for d in diags] == \
            [("rule-unverified", "note")]


class TestBuildPhi:
    def test_rejects_wrong_modes(self):
        with pytest.raises(PimodError):
            build_phi(SF_INT_ENC, SF_ENC)
        with pytest.raises(PimodError):
            build_phi(SF_ENC, SF_ENC)

    def test_system_f_morphism_verifies(self):
        assert verify_morphism(build_phi(SF_ENC, SF_INT_ENC)) == []

    def test_mltt_morphism_verifies(self):
        fin = generate_finite(MLTT_FIN)
        assert verify_morphism(build_phi(fin, MLTT_ENC)) == []

    def test_phi_commutes_with_translation(self):
        phi = build_phi(SF_ENC, SF_INT_ENC)
        for ctx, m in ((EptsContext(), elaborate(SYSTEM_F, EptsContext(), PID)),
                       (CTX, id_applied()),
                       (CTX, elaborate(SYSTEM_F, CTX,
                                       PApp(PLam("x", PVar(1), PVar(0)),
                                            PVar(0))))):
            assert apply_morphism(phi, translate(SF_ENC, m)) == \
                translate(SF_INT_ENC, m)
            fin_ctx = translate_ctx(SF_ENC, ctx)
            int_ctx = translate_ctx(SF_INT_ENC, ctx)
            assert [(h, apply_morphism(phi, a)) for h, a in fin_ctx.entries] == \
                list(int_ctx.entries)

    def test_phi_commutes_with_translation_mltt(self):
        fin = generate_finite(MLTT_FIN)
        phi = build_phi(fin, MLTT_ENC)
        pid0 = PLam("A", PSort("0"), PLam("x", PVar(0), PVar(0)))
        m = elaborate(MLTT_INT, EptsContext(), pid0)
        assert apply_morphism(phi, translate(fin, m)) == translate(MLTT_ENC, m)

    def test_unrepresentable_sort(self):
        trimmed = MLTT_INT.__class__(
            constants=MLTT_INT.constants, rules=MLTT_INT.rules,
            named={k: v for k, v in MLTT_INT.named.items() if k != "3"})
        fin = generate_finite(MLTT_FIN)
        with pytest.raises(UnrepresentableSort):
            build_phi(fin, generate_internalized(trimmed))


def _phi_outcome(build, src, dst):
    try:
        phi = build(src, dst)
    except PimodError as e:
        return type(e), str(e), e.info
    return phi.source, phi.target, list(phi.body.items())


class TestPhiAgainstReference:
    """``build_phi`` lays out each image through ``EncodingTheory.family``;
    ``reference.build_phi`` spells the layout out role by role.  Bodies,
    their order and the errors must agree."""

    @pytest.mark.parametrize("corpus", ["systemf", "mltt"])
    def test_bundled_systems(self, corpus):
        sf = load_sorts(corpus)
        fin, int_ = generate(sf.finite), generate(sf.internalized)
        assert _phi_outcome(build_phi, fin, int_) == \
            _phi_outcome(ref.build_phi, fin, int_)

    @pytest.mark.parametrize("levels", range(2, 9))
    def test_towers(self, levels):
        sf = parse_sort_spec_file(tower_sorts(levels))
        fin, int_ = generate(sf.finite), generate(sf.internalized)
        for src, dst in ((fin, int_), (int_, fin), (fin, fin)):
            assert _phi_outcome(build_phi, src, dst) == \
                _phi_outcome(ref.build_phi, src, dst)
        # a target that names every sort but the top one
        top = f"u{levels}"
        trimmed = parse_sort_spec_file(
            tower_sorts(levels).replace(f"\n{top} := ", f"\n# {top} := "))
        assert top not in trimmed.internalized.named
        short = generate(trimmed.internalized)
        got = _phi_outcome(build_phi, fin, short)
        assert got[0] is UnrepresentableSort
        assert got == _phi_outcome(ref.build_phi, fin, short)
