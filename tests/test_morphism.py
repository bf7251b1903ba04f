"""Signature morphisms: homomorphic mapping, verification, and phi."""

import pytest

import reference as ref
from pimod.corpus import load_sorts
from pimod.encode import (generate, generate_finite, generate_internalized,
                          translate, translate_ctx)
from pimod.epts import EptsContext, PApp, PLam, PSort, PVar, elaborate
from pimod import kernel
from pimod.errors import FuelExhausted, MissingBody, PimodError, UnrepresentableSort
from pimod.morphism import (TheoryMorphism, apply_morphism, build_phi,
                            verify_morphism)
from pimod.rewrite import Fuel
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


def _verdict(verify, mor, fuel=None):
    """``verify(mor)`` on a fresh meter: each diagnostic's code, message,
    subject, severity and data (through ``repr``, which shows binder
    hints), or the failure, and the ticks spent."""
    f = Fuel() if fuel is None else Fuel(fuel)
    try:
        out = [(d.code, d.message, d.subject, d.severity, repr(d.data))
               for d in verify(mor, f)]
    except (PimodError, FuelExhausted) as e:
        out = (type(e), str(e))
    return out, f.limit - f.remaining


def assert_same_verdict(mor, fuel=None):
    """The one kernel state of a call reports what a kernel per constant
    reports, and spends at most its ticks."""
    (got, ticks), (want, old_ticks) = (_verdict(verify_morphism, mor, fuel),
                                       _verdict(ref.verify_morphism, mor, fuel))
    assert got == want
    assert ticks <= old_ticks
    return got


def _phis():
    """φ for the bundled systems and for towers of 2 to 6 levels."""
    for sf in (load_sorts("systemf"), load_sorts("mltt"),
               *(parse_sort_spec_file(tower_sorts(n)) for n in range(2, 7))):
        yield build_phi(generate(sf.finite), generate(sf.internalized))


def _first(mor, prefix, skip=0):
    return [d.name for d in mor.source.signature if d.name.startswith(prefix)][skip]


def _mutants(phi):
    """(label, morphism, fuel) for ``phi`` and for broken copies of it."""
    yield "sound", phi, None
    yield "budget", phi, 16
    # one image object for two constants, ill-typed for only one of them,
    # checked first or second; every telescope that mentions that one
    # becomes ill-typed too
    el, el2 = _first(phi, "El@"), _first(phi, "El@", 1)
    for bad, good in ((el, el2), (el2, el)):
        body = dict(phi.body)
        body[bad] = body[good]
        yield f"shared telescope image {bad}", TheoryMorphism(phi.source, phi.target, body), None
    u, big_u = _first(phi, "u@"), _first(phi, "U@")
    body = dict(phi.body)
    body[u] = body[big_u]
    yield "shared ill-typed body", TheoryMorphism(phi.source, phi.target, body), None
    body = dict(phi.body)
    del body[_first(phi, "abs@")]
    yield "unmapped", TheoryMorphism(phi.source, phi.target, body), None
    tgt = Theory(phi.target.signature, tuple(r for r in phi.target.rules if r.name != "beta"))
    yield "rule lost", TheoryMorphism(phi.source, tgt, phi.body), None


class TestVerifyAgainstReference:
    """``reference.verify_morphism`` checks each constant's telescope
    image and body in fresh kernel calls; one call of ``verify_morphism``
    shares one kernel state and one image table across them all.  The
    diagnostics must be the same, and the ticks no more."""

    @pytest.mark.parametrize("phi", list(_phis()), ids=lambda p: str(len(p.source.signature)))
    def test_phi_and_its_mutants(self, phi):
        outcomes = {label: assert_same_verdict(mor, fuel) for label, mor, fuel in _mutants(phi)}
        assert outcomes["sound"] == []
        for bad in (_first(phi, "El@"), _first(phi, "El@", 1)):
            got = outcomes[f"shared telescope image {bad}"]
            assert {d[0] for d in got} == {"image-ill-typed"}
            assert len(got) > 1 and bad in {d[2] for d in got}
        assert [d[0] for d in outcomes["shared ill-typed body"]].count("image-ill-typed") == 1
        assert {d[0] for d in outcomes["unmapped"]} == {"missing-image"}
        assert outcomes["rule lost"] and \
            {d[0] for d in outcomes["rule lost"]} <= {"rule-not-preserved", "rule-unverified"}

    def test_renaming_and_its_mutants(self):
        tgt = _target(RewriteRule("fD", (Cons("o"),), Cons("o"), name="fD-o"))
        assert assert_same_verdict(rename_into(tgt)) == []
        body = dict(RENAME)
        body["z"] = body["N"]   # one object: a type for N, ill-typed for z
        got = assert_same_verdict(TheoryMorphism(SRC, tgt, body))
        assert [(d[0], d[2]) for d in got] == [("image-ill-typed", "z"),
                                               ("rule-not-preserved", "f-z")]
        spin = _target(RewriteRule("fD", (Cons("o"),), Cons("fD", (Cons("o"),)), name="fD-spin"))
        assert [d[0] for d in assert_same_verdict(rename_into(spin), 16)] == ["rule-unverified"]
        assert [d[0] for d in assert_same_verdict(rename_into(_target()))] == \
            ["rule-not-preserved"]


class TestMorphismWork:
    def test_inference_calls_per_constant_do_not_grow_with_height(self, monkeypatch):
        """A kernel per constant types each sort term ``s(…s(z))`` again
        in each context it meets it in, so its inferences per constant
        grow with the tower (25.0 / 40.5 / 55.1 at 4 / 8 / 12 levels); one
        kernel state per call types each ground term once (12.9 / 14.3 /
        14.8)."""
        calls = 0
        infer = kernel._Kernel.infer

        def counting(*args):
            nonlocal calls
            calls += 1
            return infer(*args)

        monkeypatch.setattr(kernel._Kernel, "infer", counting)
        per_constant = []
        for levels in (4, 8, 12):
            sf = parse_sort_spec_file(tower_sorts(levels))
            phi = build_phi(generate(sf.finite), generate(sf.internalized))
            calls = 0
            assert verify_morphism(phi) == []
            per_constant.append(calls / len(phi.source.signature))
        assert max(per_constant) <= 16
        assert per_constant[-1] <= 1.2 * per_constant[0]

    def test_each_source_node_is_mapped_once(self):
        phi = build_phi(SF_ENC, SF_INT_ENC)
        t = Cons("El@Type", (Cons("U@Type"),))
        pair = App(t, t)
        image = apply_morphism(phi, pair)
        assert image.fn is image.arg
        # the sort term of the image body is kept, not rebuilt
        assert image.fn.args[0] is phi.body["El@Type"].args[0]
