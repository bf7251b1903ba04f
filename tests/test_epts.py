"""Sort specifications, annotated terms, linearized beta, elaboration."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference
from pimod import epts
from pimod.corpus import CORPUS_NAMES, load_cases, load_sorts
from pimod.epts import (EApp, ELam, EPi, ESort, EVar, EptsContext,
                        FiniteSortSpec, InternalizedSortSpec, PApp, PLam, PPi,
                        PSort, PVar, SortSpec, elaborate,
                        elaborate_context, epts_check, epts_convertible,
                        epts_infer, epts_nf, epts_redex, epts_reduce,
                        epts_whnf, erase_to_pts, sort_of_type)
from pimod.errors import (ElaborationFailed, NonFunctionalSpec, NonTerminatingSpec,
                          NotAProduct, PimodError, SideConditionFailed,
                          TopSortHasNoType, TypeMismatch, UnboundVariable, UnknownSort)
from pimod.rewrite import Fuel
from pimod.syntax import fresh_names, parse_pts_term, render
from pimod.terms import Cons, Declaration, Meta, RewriteRule, Var, shift, subst, subterms
from strategies import epts_terms, pts_terms
import systems
from systems import (COC, MLTT_FIN, MLTT_INT, PID, PID_TYPE, POLY, SYSTEM_F, SYSTEM_F_INT,
                     zs_tower)

# a context with one type variable and one inhabitant: C : Type, c : C
CTX = EptsContext().extend("C", ESort("Type")).extend("c", EVar(0))

# the explicit form of the polymorphic identity, written out once
EID = ELam("Kind", "Type", ESort("Type"), "A",
           EPi("Type", "Type", EVar(0), "x", EVar(1)),
           ELam("Type", "Type", EVar(0), "x", EVar(1), EVar(0)))


class TestFiniteSpec:
    def test_tables(self):
        assert SYSTEM_F.sorts == ("Type", "Kind")
        assert SYSTEM_F.axiom_of("Type") == "Kind"
        assert SYSTEM_F.axiom_of("Kind") is None
        assert SYSTEM_F.rule_of("Kind", "Type") == "Type"
        assert SYSTEM_F.rule_of("Type", "Kind") is None
        assert SYSTEM_F.axiom_defined("Type") and not SYSTEM_F.axiom_defined("Kind")
        assert SYSTEM_F.rule_defined("Type", "Type")
        assert not SYSTEM_F.rule_defined("Kind", "Kind")

    def test_unknown_sorts_are_loud(self):
        with pytest.raises(UnknownSort):
            SYSTEM_F.axiom_of("Set")
        with pytest.raises(UnknownSort):
            SYSTEM_F.rule_of("Type", "Set")
        with pytest.raises(UnknownSort):
            FiniteSortSpec.build(["A"], [("A", "B")], [])

    def test_functionality_enforced(self):
        with pytest.raises(NonFunctionalSpec):
            FiniteSortSpec.build(["A", "A"], [], [])
        with pytest.raises(NonFunctionalSpec):
            FiniteSortSpec.build(["A", "B"], [("A", "A"), ("A", "B")], [])
        with pytest.raises(NonFunctionalSpec):
            FiniteSortSpec.build(["A", "B"], [],
                                 [("A", "A", "A"), ("A", "A", "B")])
        # restating the same fact is not a contradiction
        spec = FiniteSortSpec.build(["A"], [], [("A", "A", "A"), ("A", "A", "A")])
        assert spec.rule_of("A", "A") == "A"

    def test_no_coverage_notes(self):
        # Kind has no axiom, and every defined axiom and rule has a name
        assert SYSTEM_F.coverage_diagnostics() == []


@pytest.mark.parametrize("spec", (SYSTEM_F, SYSTEM_F_INT), ids=("finite", "internalized"))
def test_both_presentations_reject_an_undeclared_sort(spec):
    for ask in (lambda: spec.rule_defined("nosuch", "Type"),
                lambda: spec.rule_defined("Type", "nosuch"),
                lambda: spec.axiom_defined("nosuch"),
                lambda: spec.require("nosuch")):
        with pytest.raises(UnknownSort, match="^unknown sort 'nosuch'$"):
            ask()
    spec.require("Kind")
    assert spec.rule_defined("Kind", "Type") and not spec.rule_defined("Type", "Kind")


def _table_specs():
    """Every spec of the corpus, of ``systems`` and of z/s towers of 2 to
    12 levels, each with a label."""
    out = [(f"{name}/{mode}", spec) for name in CORPUS_NAMES
           for mode, spec in vars(load_sorts(name)).items() if isinstance(spec, SortSpec)]
    out += [(name, spec) for name, spec in vars(systems).items() if isinstance(spec, SortSpec)]
    return out + [(f"tower{n}", zs_tower(n)) for n in range(2, 13)]


def _system_f_with(*rules: RewriteRule, without: str = "") -> InternalizedSortSpec:
    """Internalized System F less the rule ``without``, plus ``rules``."""
    return InternalizedSortSpec(
        SYSTEM_F_INT.constants,
        tuple(r for r in SYSTEM_F_INT.rules if r.name != without) + rules,
        SYSTEM_F_INT.named)


class TestSortTable:
    """Both presentations answer from one table.  An internalized entry is
    the one normal form of an exhaustive search over its reducts, so it
    agrees with the first-match evaluation it replaced wherever that one
    answered; the search also finds what first match never sees."""

    @pytest.mark.parametrize("spec", [pytest.param(spec, id=label)
                                      for label, spec in _table_specs()])
    def test_every_entry_equals_the_first_match_oracle(self, spec):
        table = spec.table()
        assert list(table) == [("Ax", (s,)) for s in spec.sorts] + [
            ("Ru", (s1, s2)) for s1 in spec.sorts for s2 in spec.sorts]
        assert table == {key: reference.sort_value(spec, *key) for key in table}

    def test_the_constructor_fills_no_entry(self):
        spec = load_sorts("mltt").internalized
        assert spec._table == {}
        assert spec.rule_of("1", "2") == "2"
        assert list(spec._table) == [("Ru", ("1", "2"))]

    def test_two_normal_forms_are_rejected(self):
        spec = _system_f_with(
            RewriteRule("Ru", (Cons("type"), Cons("type")), Cons("kind"), name="ru-tt2"))
        assert reference.sort_value(spec, "Ru", ("Type", "Type"))[1] == "Type"
        assert spec.axiom_of("Type") == "Kind" and spec.rule_of("Kind", "Type") == "Type"
        with pytest.raises(NonFunctionalSpec, match=(
                r"^the product rule for \(Type, Type\) has two normal forms: type and kind$")):
            spec.rule_of("Type", "Type")

    def test_a_cycle_is_rejected(self):
        """``Ru(kind, type)`` reaches ``type`` by ``ru-kt``, the rule first
        match takes, and also loops."""
        loop = RewriteRule("Ru", (Meta("x"), Meta("y")), Cons("Ru", (Meta("x"), Meta("y"))),
                           name="loop")
        spec = _system_f_with(loop, without="ru-tt")
        assert reference.sort_value(spec, "Ru", ("Kind", "Type"))[1] == "Type"
        assert spec.axiom_of("Type") == "Kind"
        for s1, t1 in (("Kind", "kind"), ("Type", "type")):
            with pytest.raises(NonTerminatingSpec, match=(
                    rf"^the product rule for \({s1}, Type\) has a cycle: "
                    rf"rule 'loop' leads back to Ru\({t1}, type\)$")):
                spec.rule_of(s1, "Type")

    def test_a_growing_rule_is_undecided(self):
        grow = RewriteRule("Ax", (Meta("n"),), Cons("Ax", (Cons("s", (Meta("n"),)),)),
                           name="grow")
        spec = InternalizedSortSpec(MLTT_INT.constants, (grow,), {"0": Cons("z")})
        with pytest.raises(NonTerminatingSpec, match=(
                rf"^the axiom of '0' is undecided: its search visited {epts.SEARCH_LIMIT} terms$")):
            spec.axiom_of("0")
        assert spec.rule_of("0", "0") is None and not spec.rule_defined("0", "0")


class TestInternalizedSpec:
    def test_computed_axioms_and_rules(self):
        assert SYSTEM_F_INT.axiom_of("Type") == "Kind"
        assert SYSTEM_F_INT.axiom_of("Kind") is None          # Ax(kind) is stuck
        assert SYSTEM_F_INT.rule_of("Kind", "Type") == "Type"
        assert SYSTEM_F_INT.rule_of("Type", "Kind") is None
        assert not SYSTEM_F_INT.rule_defined("Type", "Kind")

    def test_numeric_tower_computes_maxima(self):
        assert MLTT_INT.axiom_of("1") == "2"
        assert MLTT_INT.rule_of("1", "2") == "2"
        assert MLTT_INT.rule_of("2", "1") == "2"
        assert MLTT_INT.rule_of("0", "0") == "0"
        assert MLTT_INT.rule_of("3", "3") == "3"

    def test_defined_but_unnamed_is_distinguished_from_stuck(self):
        # Ax(s^3 z) evaluates to s^4 z, which no name covers
        with pytest.raises(UnknownSort):
            MLTT_INT.axiom_of("3")
        assert MLTT_INT.axiom_defined("3")

    def test_coverage_notes(self):
        diags = MLTT_INT.coverage_diagnostics()
        assert [(d.code, d.subject, d.severity) for d in diags] == \
            [("unnamed-axiom", "3", "note")]
        assert SYSTEM_F_INT.coverage_diagnostics() == []

    def test_coverage_notes_name_each_unnamed_rule(self):
        # Ru(a, a) evaluates to b, which no name covers; A and A2 both name a
        a, b = (Declaration(n, (), Cons("Sort")) for n in "ab")
        spec = InternalizedSortSpec(
            constants=(a, b),
            rules=(RewriteRule("Ru", (Cons("a"), Cons("a")), Cons("b"), name="ru"),),
            named={"A": Cons("a"), "A2": Cons("a")})
        pairs = ["(A, A)", "(A, A2)", "(A2, A)", "(A2, A2)"]
        assert [(d.code, d.subject, d.message, d.severity)
                for d in spec.coverage_diagnostics()] == [
            ("unnamed-rule", p,
             f"the product rule for {p} is defined but has no declared name", "note")
            for p in pairs]

    def test_name_lookup(self):
        assert MLTT_INT.names[Cons("s", (Cons("z"),))] == "1"
        assert Cons("Ax", (Cons("z"),)) not in MLTT_INT.names
        assert MLTT_INT.sort_term("0") == Cons("z")

    def test_former_hygiene(self):
        with pytest.raises(PimodError):
            InternalizedSortSpec(
                constants=(Declaration("Ax", (), Cons("Sort")),),
                rules=(), named={})
        with pytest.raises(PimodError):
            InternalizedSortSpec(
                constants=(Declaration("u", (("x", Cons("u")),), Cons("Sort")),),
                rules=(), named={})

    def test_named_terms_must_be_closed_constructors(self):
        z = Declaration("z", (), Cons("Sort"))
        with pytest.raises(PimodError):
            InternalizedSortSpec(constants=(z,), rules=(), named={"w": Var(0)})
        with pytest.raises(PimodError):
            InternalizedSortSpec(constants=(z,), rules=(),
                                 named={"w": Cons("Ru", (Cons("z"), Cons("z")))})
        with pytest.raises(PimodError):
            InternalizedSortSpec(constants=(z,), rules=(),
                                 named={"w": Cons("z", (Cons("z"),))})

    def test_rule_validation_happens_on_the_mini_theory(self):
        z = Declaration("z", (), Cons("Sort"))
        with pytest.raises(PimodError):
            InternalizedSortSpec(
                constants=(z,),
                rules=(RewriteRule("Ax", (Meta("n"),), Meta("q"), name="bad"),),
                named={})


def id_applied():
    """(id C) c elaborated in CTX."""
    return elaborate(SYSTEM_F, CTX, PApp(PApp(PID, PVar(1)), PVar(0)))


class TestLinearizedBeta:
    def test_two_steps_to_the_variable(self):
        t = id_applied()
        nf, trail = epts_reduce(SYSTEM_F, t)
        assert nf == EVar(0)
        assert len(trail) == 2

    def test_redex_sort_pairs_in_order(self):
        t = id_applied()
        t2, sorts = epts_redex(SYSTEM_F, t)
        assert sorts == ("Kind", "Type")
        t3, sorts = epts_redex(SYSTEM_F, t2)
        assert sorts == ("Type", "Type")
        assert epts_redex(SYSTEM_F, t3) is None

    def test_annotation_mismatch_blocks_contraction(self):
        lam = ELam("Type", "Type", EVar(0), "x", EVar(1), EVar(0))
        stuck = EApp("Kind", "Type", EVar(0), "x", EVar(1), lam, EVar(0))
        assert epts_redex(SYSTEM_F, stuck) is None

    def test_missing_rule_blocks_contraction(self):
        lam = ELam("Type", "Kind", EVar(0), "x", ESort("Type"), ESort("Type"))
        stuck = EApp("Type", "Kind", EVar(0), "x", ESort("Type"), lam, EVar(0))
        assert epts_redex(SYSTEM_F, stuck) is None

    def test_whnf_ignores_annotations(self):
        t = id_applied()
        # bury the redex in an annotation position: a product whose domain
        # reduces
        dom = EApp("Type", "Type", EVar(0), "x", EVar(1),
                   ELam("Type", "Type", EVar(0), "x", EVar(1), EVar(0)),
                   EVar(0))
        assert epts_whnf(SYSTEM_F, EPi("Type", "Type", dom, "y", EVar(1))) == \
            EPi("Type", "Type", dom, "y", EVar(1))
        assert epts_whnf(SYSTEM_F, t) == EVar(0)

    def test_subject_reduction_along_the_trail(self):
        t = id_applied()
        ty = epts_infer(SYSTEM_F, CTX, t)
        _, trail = epts_reduce(SYSTEM_F, t)
        for u in trail:
            epts_check(SYSTEM_F, CTX, u, ty)

    def test_convertibility(self):
        t = id_applied()
        assert epts_convertible(SYSTEM_F, t, EVar(0))
        assert not epts_convertible(SYSTEM_F, t, EVar(1))


class TestTyping:
    def test_identity_types_as_written(self):
        assert epts_infer(SYSTEM_F, EptsContext(), EID) == \
            EPi("Kind", "Type", ESort("Type"), "A",
                EPi("Type", "Type", EVar(0), "x", EVar(1)))

    def test_sorts_type_through_axioms(self):
        assert epts_infer(SYSTEM_F, EptsContext(), ESort("Type")) == ESort("Kind")
        with pytest.raises(TopSortHasNoType):
            epts_infer(SYSTEM_F, EptsContext(), ESort("Kind"))
        with pytest.raises(UnknownSort):
            epts_infer(SYSTEM_F, EptsContext(), ESort("Prop"))

    def test_products_respect_the_rule_table(self):
        good = EPi("Type", "Type", EVar(1), "x", EVar(2))
        assert epts_infer(SYSTEM_F, CTX, good) == ESort("Type")
        bad = EPi("Type", "Kind", EVar(1), "x", ESort("Type"))
        with pytest.raises(SideConditionFailed):
            epts_infer(SYSTEM_F, CTX, bad)

    def test_mismatch_carries_both_sides(self):
        with pytest.raises(TypeMismatch) as e:
            epts_check(SYSTEM_F, CTX, EVar(0), ESort("Type"))
        assert e.value.expected == ESort("Type")
        assert e.value.actual == EVar(1)

    def test_application_type_reduces_in_checking(self):
        # p also checks against ((lam A:Prop. A) P), a type-level redex;
        # the abstraction over propositions needs the (Type, Type) rule,
        # which the impredicative table has
        ctx = EptsContext().extend("P", ESort("Prop")).extend("p", EVar(0))
        ty = elaborate(COC, ctx,
                       PApp(PLam("A", PSort("Prop"), PVar(0)), PVar(1)))
        epts_check(COC, ctx, EVar(0), ty)

    def test_sort_of_type(self):
        assert sort_of_type(SYSTEM_F, CTX, EVar(1)) == "Type"
        assert sort_of_type(SYSTEM_F, EptsContext(), ESort("Type")) == "Kind"
        with pytest.raises(ElaborationFailed):
            sort_of_type(SYSTEM_F, CTX, EVar(0))   # c's type is C, not a sort


class TestElaborate:
    def test_identity_elaborates_to_the_frozen_form(self):
        assert elaborate(SYSTEM_F, EptsContext(), PID) == EID

    def test_erasure_undoes_elaboration(self):
        for t in (PID, PID_TYPE, POLY,
                  PApp(PApp(PID, PVar(1)), PVar(0)),
                  PPi("B", PSort("Type"),
                      PPi("f", PPi("x", PVar(0), PVar(1)), PVar(1)))):
            e = elaborate(SYSTEM_F, CTX, t)
            assert erase_to_pts(e) == t

    def test_result_is_well_typed(self):
        for t in (PID, POLY, PApp(PApp(PID, PVar(1)), PVar(0))):
            e = elaborate(SYSTEM_F, CTX, t)
            epts_infer(SYSTEM_F, CTX, e)   # must not raise

    def test_elaboration_failures(self):
        with pytest.raises(NotAProduct):
            elaborate(SYSTEM_F, CTX, PApp(PSort("Type"), PID))
        with pytest.raises(UnboundVariable):
            elaborate(SYSTEM_F, EptsContext(), PVar(0))
        with pytest.raises(TypeMismatch):
            # id expects a Type argument, not a term
            elaborate(SYSTEM_F, CTX, PApp(PID, PVar(0)))

    def test_rule_side_condition_checked(self):
        # in the finite numeric tower, products over sort 3 have no rule
        with pytest.raises(SideConditionFailed):
            elaborate(MLTT_FIN, EptsContext(),
                      PPi("x", PSort("2"), PSort("2")))

    def test_abstraction_rule_checked(self):
        # lam x : C. C would have the type C -> Type, a product over the
        # pair (Type, Kind), which System F has no rule for
        for spec in (SYSTEM_F, SYSTEM_F_INT):
            with pytest.raises(SideConditionFailed, match=r"\(Type, Kind\)"):
                elaborate(spec, CTX, PLam("x", PVar(1), PVar(2)))

    def test_across_specifications(self):
        # the same implicit term elaborates against different sort tables
        for spec, s in ((SYSTEM_F, "Type"), (COC, "Prop"), (MLTT_FIN, "0")):
            pid = PLam("A", PSort(s), PLam("x", PVar(0), PVar(0)))
            e = elaborate(spec, EptsContext(), pid)
            assert erase_to_pts(e) == pid

    def test_leaves_are_the_parsed_objects(self):
        # an explicit term's leaves are framework leaves: elaboration
        # passes the parsed variables and sorts through, and erasure
        # returns them as they are
        def leaves(t):
            return [u for u, _ in subterms(t) if not u.children()]
        for case in load_cases():
            ctx = elaborate_context(case.spec, case.file.assumes)
            for j in case.file.judgments:
                m = elaborate(case.spec, ctx, j.term)
                assert all(type(u) in (Var, Cons) for u in leaves(m))
                got, want = leaves(erase_to_pts(m)), leaves(j.term)
                assert len(got) == len(want)
                assert all(g is w for g, w in zip(got, want)), case.label

    def test_elaborate_context(self):
        ctx = elaborate_context(SYSTEM_F, [("C", PSort("Type")), ("c", PVar(0))])
        assert ctx == CTX
        with pytest.raises(ElaborationFailed):
            elaborate_context(SYSTEM_F, [("C", PSort("Type")),
                                         ("c", PVar(0)), ("d", PVar(0))])


class TestRawAlgebra:
    @given(epts_terms())
    def test_subst_undoes_shift(self, t):
        assert subst(shift(t, 1), 0, ESort("Type")) == t

    @given(pts_terms())
    def test_pts_subst_is_not_needed_but_shift_composes(self, t):
        assert shift(shift(t, 1), 2) == shift(t, 3)
        assert shift(t, 0) == t

    @given(epts_terms())
    def test_erasure_commutes_with_shift(self, t):
        assert erase_to_pts(shift(t, 2)) == shift(erase_to_pts(t), 2)


# --- one-pass elaboration against the re-inferring reference -----------------------


CASES = load_cases()

# three entries, so that every variable pts_terms() draws is bound
CTX3 = EptsContext().extend("C", ESort("Type")).extend("c", EVar(0)).extend("D", ESort("Type"))


def outcome(elab, spec, ctx, t):
    """What ``elab`` makes of ``t`` in ``ctx`` (the term with its rendering,
    or the error), and the fuel ticks it spent."""
    f = Fuel()
    try:
        m = elab(spec, ctx, t, f)
        out = ("term", m, render(m, fresh_names(ctx.names)))
    except PimodError as e:
        out = ("error", type(e), e.message, e.info,
               getattr(e, "expected", None), getattr(e, "actual", None))
    return out, f.limit - f.remaining


def same_type(spec, ctx, m):
    """``_head_type`` reads off ``m`` the type ``epts_infer`` gives it, by
    ``==`` and by ``render``, or raises the same error."""
    got = outcome(lambda spec, ctx, m, f: epts._head_type(spec, ctx, m), spec, ctx, m)[0]
    assert got == outcome(epts_infer, spec, ctx, m)[0]


def in_context(ctx, m):
    """Every subterm of ``m``, each with the context it sits in."""
    yield ctx, m
    for k, bound in m.children():
        yield from in_context(ctx.extend(m.hint, m.dom) if bound else ctx, k)


def agree(spec, ctx, t):
    """Elaborate ``t`` with the library and with the reference: the same
    term or the same error, and never more fuel.  The type ``_head_type``
    reads off the result is the one ``epts_infer`` gives it, or raises
    the same error.  Returns (outcome, ticks, reference ticks)."""
    want, ref_ticks = outcome(reference._elab, spec, ctx, t)
    got, ticks = outcome(lambda spec, ctx, t, f: epts._elab(spec, f, ctx, t), spec, ctx, t)
    assert got == want
    assert ticks <= ref_ticks
    if got[0] == "term":
        same_type(spec, ctx, got[1])
    return got, ticks, ref_ticks


class TestElaborationOracle:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
    def test_corpus_judgments(self, case):
        ctx = elaborate_context(case.spec, case.file.assumes)
        ref = EptsContext()
        for hint, raw in case.file.assumes:
            ety = reference._elab(case.spec, ref, raw, Fuel())
            sort_of_type(case.spec, ref, ety)
            ref = ref.extend(hint, ety)
        assert ctx == ref and ctx.names == ref.names
        names = fresh_names(ctx.names)
        for k, ((_, got), (_, want)) in enumerate(zip(ctx.entries, ref.entries)):
            assert render(got, names[:k]) == render(want, names[:k])
        for j in case.file.judgments:
            for t in (j.term, j.type):
                got, ticks, ref_ticks = agree(case.spec, ctx, t)
                assert got[0] == "term" and ticks == ref_ticks

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
    @given(data=st.data())
    def test_random_source_terms(self, case, data):
        s = case.spec.sorts[0]
        ctx = EptsContext().extend("A", ESort(s)).extend("a", EVar(0)).extend("B", ESort(s))
        agree(case.spec, ctx, data.draw(pts_terms(sorts=case.spec.sorts)))

    @pytest.mark.parametrize("spec", (SYSTEM_F, SYSTEM_F_INT), ids=("finite", "internalized"))
    @settings(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(m=epts_terms())
    def test_erased_well_typed_terms(self, spec, m):
        try:
            epts_infer(spec, CTX3, m)
        except PimodError:
            assume(False)
        agree(spec, CTX3, erase_to_pts(m))

    @pytest.mark.parametrize("text, ticks, ref_ticks", [
        ("(lam y : (lam A : Prop. A) C. y) c", 1, 3),
        ("(lam f : (lam A : Prop. A -> A) C. f) (lam x : C. x) c", 2, 7),
    ])
    def test_type_redexes_cost_less_fuel(self, text, ticks, ref_ticks):
        ctx = EptsContext().extend("C", ESort("Prop")).extend("c", EVar(0))
        got, *spent = agree(COC, ctx, parse_pts_term(text, COC, ctx.names))
        assert got[0] == "term" and spent == [ticks, ref_ticks]

    def test_a_top_sort_elaborates_and_fails_only_when_typed(self):
        # the axiom of internalized MLTT's sort 3 has no name
        for spec, error in ((MLTT_INT, UnknownSort), (MLTT_FIN, TopSortHasNoType)):
            assert agree(spec, EptsContext(), PSort("3"))[0][1] == ESort("3")
            with pytest.raises(error):
                elaborate(spec, EptsContext(), PApp(PSort("3"), PSort("0")))

    def test_a_demanded_argument_type_reaches_the_error(self):
        ctx = elaborate_context(COC, [("A", PSort("Prop")),
                                      ("B", PPi("x", PVar(0), PSort("Prop")))])
        got, _, _ = agree(COC, ctx, PApp(PVar(0), PSort("Prop")))
        assert got[:3] == ("error", TypeMismatch, "term does not have the required type")
        assert got[4:] == (EVar(1), ESort("Type"))
        with pytest.raises(TypeMismatch, match="expected A, got Type$"):
            elaborate(COC, ctx, PApp(PVar(0), PSort("Prop")))


def depth_term(n):
    """``lam C : Type. lam x1 : C. ... lam xn : C. x1``."""
    t = PVar(n - 1)
    for i in range(n, 0, -1):
        t = PLam(f"x{i}", PVar(i - 1), t)
    return PLam("C", PSort("Type"), t)


class TestHeadType:
    """Each typing rule's conclusion is written once, in ``_head_type``:
    on a well-typed term it gives what the checker infers, at every
    subterm in its own context."""

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
    def test_corpus_judgments(self, case):
        ctx = elaborate_context(case.spec, case.file.assumes)
        for j in case.file.judgments:
            for t in (j.term, j.type):
                for inner, m in in_context(ctx, elaborate(case.spec, ctx, t)):
                    same_type(case.spec, inner, m)

    @pytest.mark.parametrize("spec", (SYSTEM_F, SYSTEM_F_INT), ids=("finite", "internalized"))
    @settings(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(m=epts_terms())
    def test_well_typed_terms(self, spec, m):
        try:
            epts_infer(spec, CTX3, m)
        except PimodError:
            assume(False)
        for inner, u in in_context(CTX3, m):
            same_type(spec, inner, u)

    def test_fails_where_the_checker_fails(self):
        """Where the premises hold and the conclusion cannot be stated:
        top sorts, a product rule whose value has no name, an unbound
        variable and a term of the wrong language."""
        a, b, c = (Declaration(n, (), Cons("Sort")) for n in "abc")
        unnamed_rule = InternalizedSortSpec(
            constants=(a, b, c),
            rules=(RewriteRule("Ax", (Cons("a"),), Cons("c"), name="ax"),
                   RewriteRule("Ru", (Cons("a"), Cons("a")), Cons("b"), name="ru")),
            named={"A": Cons("a"), "C": Cons("c")})
        xa = EptsContext().extend("X", ESort("A"))
        for spec, ctx, m in ((MLTT_FIN, EptsContext(), ESort("3")),
                             (MLTT_INT, EptsContext(), ESort("3")),
                             (unnamed_rule, xa, EPi("A", "A", EVar(0), "x", EVar(1))),
                             (SYSTEM_F, CTX, EVar(2)),
                             (SYSTEM_F, CTX, PLam("x", PVar(1), PVar(0)))):
            with pytest.raises(PimodError):
                epts_infer(spec, ctx, m)
            same_type(spec, ctx, m)
        m = elaborate(unnamed_rule, xa, PPi("x", PVar(0), PVar(1)))
        with pytest.raises(UnknownSort, match=r"^the product rule for \(A, A\)"):
            epts._head_type(unnamed_rule, xa, m)


class TestElaborationWork:
    @pytest.mark.parametrize("n", (50, 100, 400))
    def test_inference_calls_grow_linearly_with_depth(self, monkeypatch, n):
        """Elaboration reads each type it needs off the term it has built,
        at most three times per binder, and never runs the checker."""
        calls = {"infer": 0, "_expect": 0, "_head_type": 0}

        def counting(name, fn):
            def count(*args):
                calls[name] += 1
                return fn(*args)
            return count

        monkeypatch.setattr(epts._Checker, "infer", counting("infer", epts._Checker.infer))
        for name in ("_expect", "_head_type"):
            monkeypatch.setattr(epts, name, counting(name, getattr(epts, name)))
        elaborate(SYSTEM_F, EptsContext(), depth_term(n))
        assert calls["infer"] == calls["_expect"] == 0
        assert 0 < calls["_head_type"] <= 3 * (n + 1)

    def test_one_node_object_in_two_contexts_is_typed_in_each(self):
        """``pid``'s type, the body type of the first abstraction, and its
        instance ``pid C``, a ``subst`` temporary and the body type of the
        second, share the node object ``Q``.  Elaboration must read its
        type in each context it occurs in, and the checker, whose memo is
        keyed by node object and context, must type it once per context,
        not once."""
        ctx = EptsContext()
        for hint, text in (("C", "Prop"), ("c", "C"),
                           ("K", "Pi X : Prop. Pi Y : Prop. X -> Y -> X"),
                           ("pid", "Pi A : Prop. Pi Q : A -> Prop. Pi a : A. Q a -> Q a")):
            ctx = ctx.extend(hint, elaborate(COC, ctx, parse_pts_term(text, COC, ctx.names)))
        poly = "(Pi A : Prop. Pi Q : A -> Prop. Pi a : A. Q a -> Q a)"
        inst = "(Pi Q : C -> Prop. Pi a : C. Q a -> Q a)"
        for text in (f"K (C -> {poly}) (C -> {inst}) (lam y : C. pid) (lam x : C. pid C)",
                     "lam Q : C -> Prop. lam q : Q c. pid C Q c (pid C Q c (pid C Q c q))"):
            got, _, _ = agree(COC, ctx, parse_pts_term(text, COC, ctx.names))
            assert got[0] == "term"

    def test_each_rule_pair_is_normalized_once(self, monkeypatch):
        spec = load_sorts("mltt").internalized
        normalized = []
        search = epts._unique_normal_form
        monkeypatch.setattr(epts, "_unique_normal_form",
                            lambda theory, what, t: normalized.append(t) or search(theory, what, t))
        answers = [[spec.rule_of(s1, s2) for s1 in spec.sorts for s2 in spec.sorts]
                   for _ in range(3)]
        assert answers[0] == answers[1] == answers[2]
        assert answers[0][:4] == ["0", "1", "2", "3"]
        assert len(normalized) == len(set(normalized)) == 16

    def test_an_unnamed_result_raises_on_every_call(self, monkeypatch):
        a, b = (Declaration(n, (), Cons("Sort")) for n in "ab")
        spec = InternalizedSortSpec(
            constants=(a, b),
            rules=(RewriteRule("Ru", (Cons("a"), Cons("a")), Cons("b"), name="ru"),),
            named={"A": Cons("a"), "A2": Cons("a")})
        normalized = []
        search = epts._unique_normal_form
        monkeypatch.setattr(epts, "_unique_normal_form",
                            lambda theory, what, t: normalized.append(t) or search(theory, what, t))
        errors = []
        for _ in range(3):
            with pytest.raises(UnknownSort) as e:
                spec.rule_of("A", "A")
            errors.append(e.value)
            assert spec.rule_defined("A", "A")
        assert len({id(e) for e in errors}) == 3
        assert {(str(e), e.message) for e in errors} == {(
            "the product rule for (A, A) evaluates to a sort with no declared name; "
            "value=b",
            "the product rule for (A, A) evaluates to a sort with no declared name")}
        assert len(normalized) == 1
        # another name for the same sort term keeps its own message
        with pytest.raises(UnknownSort, match=r"\(A2, A2\)"):
            spec.rule_of("A2", "A2")

    def test_a_rejected_entry_is_not_remembered(self, monkeypatch):
        """The table holds answers only: an entry whose search fails is
        searched again on the next ask, and fails again the same way."""
        spec = _system_f_with(
            RewriteRule("Ru", (Cons("type"), Cons("type")), Cons("kind"), name="ru-tt2"))
        searched = []
        search = epts._unique_normal_form
        monkeypatch.setattr(epts, "_unique_normal_form",
                            lambda theory, what, t: searched.append(t) or search(theory, what, t))
        errors = []
        for _ in range(2):
            with pytest.raises(NonFunctionalSpec) as e:
                spec.rule_of("Type", "Type")
            errors.append(e.value)
        assert len(searched) == 2
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1]) == (
            "the product rule for (Type, Type) has two normal forms: type and kind")
