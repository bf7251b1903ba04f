"""Theory generation and the term translation into it.

Expected signature sizes are recomputed here from the sort tables
(2 universes + decoders per sort, one reflection constant per axiom,
three constants per product rule), so generator regressions show up as
count mismatches before anything subtle."""

import itertools

import pytest
from hypothesis import given

from pimod.analysis import check_arity_preserving, check_rules_well_formed
from pimod.corpus import load_cases
from pimod.encode import (EncodingTheory, INTERNAL_CORE, expected_dk_type,
                          family_name, generate, generate_finite,
                          generate_internalized, mangle, translate,
                          translate_ctx)
from pimod.epts import (EApp, ELam, EPi, ESort, EVar, EptsContext,
                        InternalizedSortSpec, PApp, PVar, elaborate,
                        epts_redex)
from pimod.errors import PimodError, UnknownSort
from pimod.kernel import check, check_signature, infer
from pimod.rewrite import BETA, check_orthogonal, convertible, nf, reduce_trace
from pimod.terms import (Cons, Declaration, Lam, Var, max_free_index, subst,
                         validate_theory)
from strategies import epts_terms
from systems import MLTT_INT, PID, SYSTEM_F, SYSTEM_F_INT, TYPETYPE, COC

SF_ENC = generate_finite(SYSTEM_F)
SF_INT_ENC = generate_internalized(SYSTEM_F_INT)
MLTT_ENC = generate_internalized(MLTT_INT)

CTX = EptsContext().extend("C", ESort("Type")).extend("c", EVar(0))


def expected_finite_counts(spec):
    n_consts = 2 * len(spec.sorts) + len(spec.axioms) + 3 * len(spec.rules)
    n_rules = len(spec.axioms) + len(spec.rules)
    return n_consts, n_rules


class TestMangle:
    def test_plain_names_untouched(self):
        assert mangle("Type") == "Type"
        assert mangle("sort_0") == "sort_0"

    def test_special_characters_hex_escaped(self):
        assert mangle("*") == "%2A"
        assert mangle("@") == "%40"
        assert mangle("α") == "%CE%B1"

    def test_separator_cannot_be_forged(self):
        # a sort literally named "a@b" must not alias the pair (a, b)
        assert family_name("Prod", "a@b", "c") != family_name("Prod", "a", "b@c")
        assert family_name("U", "*") == "U@%2A"


class TestGenerateFinite:
    def test_frozen_layout_for_the_polymorphic_table(self):
        names = [d.name for d in SF_ENC.theory.signature]
        assert names == [
            "U@Type", "U@Kind", "El@Type", "El@Kind", "u@Type",
            "Prod@Type@Type", "abs@Type@Type", "app@Type@Type",
            "Prod@Kind@Type", "abs@Kind@Type", "app@Kind@Type"]
        assert [r.name for r in SF_ENC.theory.rules] == \
            ["u-red@Type", "beta@Type@Type", "beta@Kind@Type"]

    def test_counts_match_the_tables(self):
        for spec in (SYSTEM_F, TYPETYPE, COC):
            enc = generate_finite(spec)
            n_consts, n_rules = expected_finite_counts(spec)
            assert len(enc.theory.signature) == n_consts
            assert len(enc.theory.rules) == n_rules

    def test_generated_theory_is_clean(self):
        for enc in (SF_ENC, generate_finite(TYPETYPE), generate_finite(COC)):
            assert validate_theory(enc.theory) == []
            assert check_signature(enc.theory) == []
            assert check_arity_preserving(enc.theory) == []
            assert check_rules_well_formed(enc.theory) == []
            assert check_orthogonal(enc.theory).orthogonal

    def test_roles_and_labels(self):
        assert SF_ENC.role_of("abs@Kind@Type") == ("abs", "Kind", "Type")
        assert SF_ENC.role_of("u@Type") == ("u", "Type")
        assert SF_ENC.role_of("nope") is None
        assert SF_ENC.beta_label("Kind", "Type") == "beta@Kind@Type"
        assert SF_ENC.simulation_labels() == \
            frozenset({BETA, "beta@Type@Type", "beta@Kind@Type"})

    def test_universe_reflection_rule(self):
        # El_Kind (u_Type) rewrites to U_Type
        t = SF_ENC.family("El", ("Kind",), (SF_ENC.family("u", ("Type",), ()),))
        assert nf(SF_ENC.theory, t) == SF_ENC.family("U", ("Type",), ())
        assert convertible(SF_ENC.theory, t, SF_ENC.family("U", ("Type",), ()))

    def test_constructors_require_known_sorts(self):
        for _ in range(2):   # a failed check is not remembered as a name
            with pytest.raises(UnknownSort, match="unknown sort 'Prop'"):
                SF_ENC.family("U", ("Prop",), ())
            with pytest.raises(UnknownSort, match="unknown sort 'Prop'"):
                SF_ENC.family("Prod", ("Type", "Prop"), (Var(0), Var(0)))
        first = SF_ENC.family("Prod", ("Type", "Type"), (Var(0), Var(0)))
        assert SF_ENC.family("Prod", ("Type", "Type"), (Var(1), Var(1))).name is first.name


class TestFamilyLayout:
    @pytest.mark.parametrize("case", load_cases(), ids=lambda c: c.label)
    def test_split_inverts_family(self, case):
        # every generated constant, at every sort tuple it can be indexed
        # by, applied to a payload that fills its declared arity
        enc = generate(case.spec)
        for d in enc.theory.signature:
            role = enc.role_of(d.name)
            if role is None:
                continue
            if len(role) > 1:
                choices = [role[1:]]
            else:
                choices = itertools.product(enc.spec.sorts,
                                            repeat=INTERNAL_CORE[role[0]])
            for sorts in choices:
                k = len(enc.family(role[0], sorts, ()).args)
                payload = tuple(Var(i) for i in range(d.arity - k))
                t = enc.family(role[0], sorts, payload)
                assert t.name == d.name and len(t.args) == d.arity
                assert enc.split(t.name, t.args) == (role[0], sorts, payload)

    def test_split_rejects_strangers(self):
        assert SF_ENC.split("nope", ()) is None
        assert SF_INT_ENC.split("Sort", ()) is None
        # Ax(kind) is stuck, so it names no sort
        stuck = Cons("Ax", (Cons("kind"),))
        assert SF_INT_ENC.split("U", (stuck,)) is None


class TestGenerateInternalized:
    def test_single_indexed_family(self):
        names = [d.name for d in SF_INT_ENC.theory.signature]
        # core sort layer, then the user's formers, then the six constants
        assert names[:3] == ["Sort", "Ax", "Ru"]
        assert set(names[3:5]) == {"type", "kind"}
        assert names[5:] == ["U", "El", "u", "Prod", "abs", "app"]
        assert [r.name for r in SF_INT_ENC.theory.rules][:2] == ["u-red", "beta"]

    def test_generated_theory_is_clean(self):
        for enc in (SF_INT_ENC, MLTT_ENC):
            assert validate_theory(enc.theory) == []
            assert check_signature(enc.theory) == []
            assert check_arity_preserving(enc.theory) == []
            report = check_orthogonal(enc.theory)
            assert report.ok

    def test_numeric_tower_overlaps_are_trivial(self):
        # Ru(z, z) matches both unit rules; the pair joins immediately
        report = check_orthogonal(MLTT_ENC.theory)
        assert report.ok and not report.orthogonal
        assert all(d.severity == "note" for d in report.notes)

    def test_core_collision_rejected(self):
        bad = InternalizedSortSpec(
            constants=(Declaration("u", (), Cons("Sort")),),
            rules=(), named={"u": Cons("u")})
        with pytest.raises(PimodError):
            generate_internalized(bad)

    def test_reflection_rule_ignores_the_first_index(self):
        # El s' (u s) --> U s must fire whatever the first index is,
        # because the axiom sort of s need not be written the same way
        t = Cons("El", (Cons("Ax", (Cons("type"),)),
                        Cons("u", (Cons("type"),))))
        assert nf(SF_INT_ENC.theory, t) == Cons("U", (Cons("type"),))
        t2 = Cons("El", (Cons("kind"), Cons("u", (Cons("type"),))))
        assert nf(SF_INT_ENC.theory, t2) == Cons("U", (Cons("type"),))


# the framework image of the polymorphic identity, both modes, frozen


def finite_id_image():
    el_t = lambda v: Cons("El@Type", (v,))  # noqa: E731
    ann = Cons("El@Kind", (Cons("u@Type"),))
    prod_body = Cons("Prod@Type@Type", (Var(0), Lam("x", el_t(Var(0)), Var(1))))
    abs_body = Cons("abs@Type@Type", (
        Var(0), Lam("x", el_t(Var(0)), Var(1)), Lam("x", el_t(Var(0)), Var(0))))
    return Cons("abs@Kind@Type", (
        Cons("u@Type"), Lam("A", ann, prod_body), Lam("A", ann, abs_body)))


def internalized_id0_image():
    z = Cons("z")
    one = Cons("s", (z,))
    el0 = lambda v: Cons("El", (z, v))  # noqa: E731
    ann = Cons("El", (one, Cons("u", (z,))))
    prod_body = Cons("Prod", (z, z, Var(0), Lam("x", el0(Var(0)), Var(1))))
    abs_body = Cons("abs", (z, z, Var(0), Lam("x", el0(Var(0)), Var(1)),
                            Lam("x", el0(Var(0)), Var(0))))
    return Cons("abs", (one, z, Cons("u", (z,)),
                        Lam("A", ann, prod_body), Lam("A", ann, abs_body)))


class TestTranslate:
    def test_identity_image_finite(self):
        eid = elaborate(SYSTEM_F, EptsContext(), PID)
        assert translate(SF_ENC, eid) == finite_id_image()

    def test_identity_image_internalized(self):
        from pimod.epts import PLam, PSort
        pid0 = PLam("A", PSort("0"), PLam("x", PVar(0), PVar(0)))
        eid0 = elaborate(MLTT_INT, EptsContext(), pid0)
        assert translate(MLTT_ENC, eid0) == internalized_id0_image()

    def test_image_typechecks_at_the_declared_result(self):
        img = finite_id_image()
        got = infer(SF_ENC.theory, translate_ctx(SF_ENC, EptsContext()), img)
        want = Cons("El@Type", (Cons("Prod@Kind@Type", (
            Cons("u@Type"),
            Lam("A", Cons("El@Kind", (Cons("u@Type"),)),
                Cons("Prod@Type@Type",
                     (Var(0), Lam("x", Cons("El@Type", (Var(0),)), Var(1))))),)),))
        assert got == want

    @given(epts_terms(max_free=2))
    def test_translation_commutes_with_substitution(self, m):
        n = ESort("Type")
        assert translate(SF_ENC, subst(m, 0, n)) == \
            subst(translate(SF_ENC, m), 0, translate(SF_ENC, n))

    def test_sorts_are_represented_by_closed_normal_terms(self):
        for enc in (MLTT_ENC, SF_INT_ENC):
            images = set()
            for s in enc.spec.sorts:
                img = translate(enc, ESort(s))
                assert max_free_index(img) == -1
                assert nf(enc.theory, img) == img
                ty = infer(enc.theory, translate_ctx(enc, EptsContext()), img)
                assert ty == Cons("U", (Cons("Ax", (enc.spec.sort_term(s),)),))
                images.add(img)
            assert len(images) == len(enc.spec.sorts)


class TestContextAndTypes:
    def test_context_entries_land_in_their_decoder(self):
        dctx = translate_ctx(SF_ENC, CTX)
        assert dctx.entries == (
            ("C", Cons("El@Kind", (Cons("u@Type"),))),
            ("c", Cons("El@Type", (Var(0),))))

    def test_expected_type_of_a_top_sort_is_its_universe(self):
        assert expected_dk_type(SF_ENC, EptsContext(), ESort("Kind")) == \
            Cons("U@Kind")
        assert expected_dk_type(SF_INT_ENC, EptsContext(), ESort("Kind")) == \
            Cons("U", (Cons("kind"),))

    def test_expected_type_of_a_typed_sort_is_its_image_decoded(self):
        got = expected_dk_type(SF_ENC, EptsContext(), ESort("Type"))
        assert got == Cons("El@Kind", (Cons("u@Type"),))
        assert convertible(SF_ENC.theory, got, Cons("U@Type"))

        got_i = expected_dk_type(SF_INT_ENC, EptsContext(), ESort("Type"))
        assert got_i == Cons("El", (Cons("kind"), Cons("u", (Cons("type"),))))
        assert convertible(SF_INT_ENC.theory, got_i, Cons("U", (Cons("type"),)))

    def test_expected_type_of_a_variable_type(self):
        assert expected_dk_type(SF_ENC, CTX, EVar(1)) == \
            Cons("El@Type", (Var(1),))

    def test_judgment_image_checks_against_expected_type(self):
        t = elaborate(SYSTEM_F, CTX, PApp(PApp(PID, PVar(1)), PVar(0)))
        from pimod.epts import epts_infer
        ty = epts_infer(SYSTEM_F, CTX, t)
        check(SF_ENC.theory, translate_ctx(SF_ENC, CTX),
              translate(SF_ENC, t), expected_dk_type(SF_ENC, CTX, ty))


class TestSimulation:
    def test_one_source_step_is_rule_then_beta(self):
        t = elaborate(SYSTEM_F, CTX, PApp(PApp(PID, PVar(1)), PVar(0)))
        img = translate(SF_ENC, t)
        _, trace = reduce_trace(SF_ENC.theory, img)
        assert [lbl for lbl, _ in trace] == \
            ["beta@Kind@Type", BETA, "beta@Type@Type", BETA]

        # after one simulated step the image is the image of one source step
        t2 = epts_redex(SYSTEM_F, t)[0]
        assert trace[1][1] == translate(SF_ENC, t2)
        t3 = epts_redex(SYSTEM_F, t2)[0]
        assert trace[3][1] == translate(SF_ENC, t3)

    def test_internalized_labels_are_uniform(self):
        assert SF_INT_ENC.beta_label("Kind", "Type") == "beta"
        assert SF_INT_ENC.simulation_labels() == frozenset({BETA, "beta"})

    def test_normal_forms_map_to_simulation_normal_forms(self):
        # the image of a normal term admits no beta-simulating step;
        # u-red may still tidy universe decodings inside annotations
        eid = elaborate(SYSTEM_F, EptsContext(), PID)
        img = translate(SF_ENC, eid)
        assert nf(SF_ENC.theory, img, labels=SF_ENC.simulation_labels()) == img
        tidied = nf(SF_ENC.theory, img)
        assert nf(SF_ENC.theory, tidied) == tidied
