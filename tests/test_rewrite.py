"""Reduction engine: labeled steps, normalization, whnf, conversion, overlaps.

``slow_nf`` below re-implements normalization from scratch (naive
matching, innermost-first scan).  The theory used for comparison is
orthogonal and terminating, so normal forms are unique and any
strategy must agree with the engine's leftmost-outermost one -- that
makes the oracle genuinely independent.
"""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from pimod.encode import generate
from pimod.errors import FuelExhausted
from pimod.rewrite import (BETA, DEFAULT_FUEL, Fuel, Machine, check_orthogonal,
                           convertible, match_pattern, nf, reduce_trace, step)
from pimod.terms import (TYPE, App, Cons, Declaration, DkTerm, Lam, Meta, Pi,
                         RewriteRule, Theory, Var, subst)
from systems import SYSTEM_F, SYSTEM_F_INT, extended, reducts, whnf

N = Cons("N")
Z = Cons("z")


def s(t):
    return Cons("s", (t,))


def plus(a, b):
    return Cons("plus", (a, b))


NAT = Theory((
    Declaration("N", (), TYPE),
    Declaration("z", (), N),
    Declaration("s", (("n", N),), N),
    Declaration("plus", (("m", N), ("n", N)), N),
), (
    RewriteRule("plus", (Z, Meta("n")), Meta("n"), name="plus-z"),
    RewriteRule("plus", (s(Meta("m")), Meta("n")),
                s(plus(Meta("m"), Meta("n"))), name="plus-s"),
))


def church(k):
    t = Z
    for _ in range(k):
        t = s(t)
    return t


# --- the oracle -------------------------------------------------------------


def _slow_match(p, t, env):
    if isinstance(p, Meta):
        if p.name in env:
            return env[p.name] == t
        env[p.name] = t
        return True
    if isinstance(p, Cons) and isinstance(t, Cons) and p.name == t.name \
            and len(p.args) == len(t.args):
        return all(_slow_match(q, a, env) for q, a in zip(p.args, t.args))
    return False


def _slow_inst(t, env):
    return reference.instantiate(t, env)


def _slow_once(theory, t):
    """Any single contraction, innermost-first; None when normal."""
    match t:
        case App(f, a):
            r = _slow_once(theory, f)
            if r is not None:
                return App(r, a)
            r = _slow_once(theory, a)
            if r is not None:
                return App(f, r)
            if isinstance(f, Lam):
                return subst(f.body, 0, a)
        case Cons(c, args):
            for i, a in enumerate(args):
                r = _slow_once(theory, a)
                if r is not None:
                    return Cons(c, args[:i] + (r,) + args[i + 1:])
            for rule in theory.rules_for(c):
                env = {}
                if len(rule.lhs) == len(args) and all(
                        _slow_match(p, a, env) for p, a in zip(rule.lhs, args)):
                    return _slow_inst(rule.rhs, env)
        case Lam(h, ann, body):
            r = _slow_once(theory, ann)
            if r is not None:
                return Lam(h, r, body)
            r = _slow_once(theory, body)
            if r is not None:
                return Lam(h, ann, r)
        case Pi(h, dom, cod):
            r = _slow_once(theory, dom)
            if r is not None:
                return Pi(h, r, cod)
            r = _slow_once(theory, cod)
            if r is not None:
                return Pi(h, dom, r)
    return None


def slow_nf(theory, t, budget=10_000):
    for _ in range(budget):
        r = _slow_once(theory, t)
        if r is None:
            return t
        t = r
    raise AssertionError("oracle ran out of budget")


def nat_terms():
    """Closed terms over z/s/plus with occasional beta redexes."""
    def extend(ch):
        return st.one_of(
            st.builds(s, ch),
            st.builds(plus, ch, ch),
            st.builds(lambda t: App(Lam("x", N, s(Var(0))), t), ch),
            st.builds(lambda t, u: App(Lam("x", N, plus(Var(0), Var(0))),
                                       plus(t, u)), ch, ch))
    return st.recursive(st.just(Z), extend, max_leaves=10)


class TestNormalization:
    @given(nat_terms())
    def test_nf_agrees_with_independent_oracle(self, t):
        assert nf(NAT, t) == slow_nf(NAT, t)

    @given(nat_terms())
    def test_nf_is_normal(self, t):
        r = nf(NAT, t)
        assert step(NAT, r) is None
        assert reducts(NAT, r) == []

    def test_addition_computes(self):
        assert nf(NAT, plus(church(2), church(1))) == church(3)

    def test_trace_labels_in_order(self):
        final, trace = reduce_trace(NAT, plus(s(Z), Z))
        assert [lbl for lbl, _ in trace] == ["plus-s", "plus-z"]
        assert trace[0][1] == s(plus(Z, Z))
        assert final == s(Z)

    def test_beta_has_the_reserved_label(self):
        t = App(Lam("x", N, Var(0)), Z)
        assert step(NAT, t) == (Z, BETA)

    @given(nat_terms())
    def test_local_confluence_on_orthogonal_theory(self, t):
        rs = reducts(NAT, t)[:4]
        targets = {nf(NAT, u) for _, _, u in rs}
        assert len(targets) <= 1


class TestStepOrder:
    def test_root_redex_beats_inner(self):
        t = App(Lam("x", N, Var(0)), plus(Z, Z))
        assert step(NAT, t) == (plus(Z, Z), BETA)

    def test_leftmost_argument_first(self):
        t = plus(plus(Z, Z), plus(Z, s(Z)))
        assert step(NAT, t) == (plus(Z, plus(Z, s(Z))), "plus-z")

    def test_label_filter_skips_other_redexes(self):
        t = App(Lam("x", N, Var(0)), plus(Z, Z))
        assert step(NAT, t, labels={"plus-z"}) == \
            (App(Lam("x", N, Var(0)), Z), "plus-z")
        assert nf(NAT, t, labels={BETA}) == plus(Z, Z)

    def test_reducts_lists_every_position(self):
        t = plus(Z, plus(Z, Z))
        out = reducts(NAT, t)
        assert ((), "plus-z", plus(Z, Z)) in out
        assert ((1,), "plus-z", plus(Z, Z)) in out
        assert len(out) == 2


class TestWhnf:
    def test_argument_evaluated_on_demand(self):
        t = plus(App(Lam("x", N, Var(0)), Z), s(Z))
        assert whnf(NAT, t) == s(Z)

    def test_stops_at_constructor_root(self):
        inner = App(Lam("x", N, Var(0)), Z)
        assert whnf(NAT, s(inner)) == s(inner)

    def test_stuck_application_left_alone(self):
        t = App(Var(0), plus(Z, Z))
        assert whnf(NAT, t) == t

    def test_iterated_head_steps(self):
        t = App(Lam("x", N, Lam("y", N, Var(1))), Z)
        assert whnf(NAT, App(t, s(Z))) == Z


class TestArity:
    """A rule is no redex on its head applied to fewer or more arguments
    than its patterns, in the term rewriter and in the machine alike."""

    @pytest.mark.parametrize("spec, t", [
        (SYSTEM_F, Cons("app@Kind@Type", ())),
        (SYSTEM_F_INT, Cons("app", (Cons("kind"), Cons("type")))),
        (SYSTEM_F_INT, Cons("El", (Cons("kind"), Cons("u", (Cons("type"),)), Cons("type")))),
    ], ids=("finite-under", "internalized-under", "internalized-over"))
    def test_rules_fire_only_at_their_arity(self, spec, t):
        theory = generate(spec).theory
        assert step(theory, t) is None and reducts(theory, t) == []
        assert whnf(theory, t) == t
        assert not convertible(theory, t, TYPE)
        assert convertible(theory, t, t)


class TestConvertible:
    def test_joins_across_rules_and_beta(self):
        a = plus(s(Z), Z)
        b = App(Lam("x", N, s(Var(0))), plus(Z, Z))
        assert convertible(NAT, a, b)

    def test_descends_under_binders(self):
        a = Lam("x", N, plus(Z, Var(0)))
        b = Lam("y", N, Var(0))
        assert convertible(NAT, a, b)
        assert convertible(NAT, Pi("x", N, N), Pi("y", N, N))

    def test_distinct_constructors_differ(self):
        assert not convertible(NAT, Z, s(Z))
        assert not convertible(NAT, N, Pi("x", N, N))


class TestLooseBound:
    """One term object under two environments: ``Machine.eq`` answers at
    once when the last entries its loose variables reach are the same
    values, and otherwise walks the term.  Context levels stand in for
    the values; ``tuple([...])`` keeps equal environments distinct
    objects."""

    @pytest.fixture
    def calls(self, monkeypatch):
        out = []
        real = Machine._eq_terms

        def counted(self, *args):
            out.append(args)
            return real(self, *args)
        monkeypatch.setattr(Machine, "_eq_terms", counted)
        return out

    def eq(self, t, ea, eb):
        m = Machine(NAT, Fuel())
        return m.eq(m.clo(t, tuple(ea)), m.clo(t, tuple(eb)), 10)

    def test_an_entry_within_the_bound_is_compared(self, calls):
        t = App(Var(0), Var(1))
        assert not self.eq(t, [0, 1, 2], [0, 3, 2])
        del calls[:]
        assert self.eq(t, [0, 1, 2], [5, 1, 2])
        assert len(calls) == 1

    def test_a_closed_node_is_equal_under_any_environments(self, calls):
        t = Lam("x", N, plus(Var(0), Lam("y", N, App(Var(1), Var(0)))))
        assert self.eq(t, [0, 1], [7])
        assert len(calls) == 1

    def test_a_bound_past_an_environment_needs_equal_environments(self, calls):
        t = App(Var(0), Var(1))
        # variable 1 is the value 1 under the first, level -1 under the second
        assert not self.eq(t, [1, 4], [4])
        del calls[:]
        assert self.eq(t, [4], [4])
        assert len(calls) == 1


LOOP = extended(
    NAT, Declaration("loop", (), N),
    rules=(RewriteRule("loop", (), Cons("loop"), name="spin"),))


class TestFuel:
    def test_loop_exhausts_fuel(self):
        with pytest.raises(FuelExhausted):
            nf(LOOP, Cons("loop"), fuel=25)

    def test_nf_holds_no_trace(self):
        """Each step of a 20,000-step loop builds a new term; the normal
        form search keeps only the current one until the budget runs out."""
        grow = extended(NAT, rules=(RewriteRule("s", (Meta("n"),), s(Meta("n")), name="grow"),))
        tracemalloc.start()
        try:
            with pytest.raises(FuelExhausted):
                nf(grow, s(Z), fuel=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Fuel(0)

    def test_of_passthrough_and_default(self):
        f = Fuel(5)
        assert Fuel.of(f) is f
        assert Fuel.of(None).limit == DEFAULT_FUEL
        assert Fuel.of(7).remaining == 7

    def test_shared_budget_is_consumed(self):
        f = Fuel(10)
        reduce_trace(NAT, plus(s(Z), Z), fuel=f)
        assert f.remaining == 8


class TestMatching:
    def test_binds_and_checks_consistency(self):
        env = {}
        assert match_pattern(Meta("m"), s(Z), env) and env == {"m": s(Z)}
        assert match_pattern(Meta("m"), s(Z), env)
        assert not match_pattern(Meta("m"), Z, env)

    def test_structure_mismatch(self):
        assert not match_pattern(s(Meta("m")), Z, {})
        assert not match_pattern(Lam("x", N, Var(0)), Lam("x", N, Var(0)), {})


class TestOrthogonality:
    def test_constructor_discipline_is_orthogonal(self):
        report = check_orthogonal(NAT)
        assert report.ok and report.orthogonal

    def test_trivial_overlap_is_a_note(self):
        t = extended(
            NAT, Declaration("f", (("n", N),), N),
            rules=(RewriteRule("f", (Z,), Z, name="f-z"),
                   RewriteRule("f", (Meta("m"),), Meta("m"), name="f-any")))
        report = check_orthogonal(t)
        assert report.ok and not report.orthogonal
        assert any(d.code == "overlap" and d.severity == "note"
                   for d in report.notes)

    def test_genuine_critical_pair_is_a_problem(self):
        t = extended(
            NAT, Declaration("f", (("n", N),), N),
            rules=(RewriteRule("f", (Z,), Z, name="f-z"),
                   RewriteRule("f", (Meta("m"),), s(Meta("m")), name="f-succ")))
        report = check_orthogonal(t)
        assert not report.ok
        assert any(d.code == "overlap" for d in report.problems)

    def test_critical_pair_compared_under_binders(self):
        # f(a, b) rewrites to (lam z. z) b by r1 and to (lam z. z) a by r2
        a_ty = Cons("A")
        ident = Lam("z", a_ty, Var(0))
        t = Theory((
            Declaration("A", (), TYPE),
            Declaration("a", (), a_ty),
            Declaration("b", (), a_ty),
            Declaration("f", (("x", a_ty), ("y", a_ty)), a_ty),
        ), (
            RewriteRule("f", (Cons("a"), Meta("X")), App(ident, Meta("X")), name="r1"),
            RewriteRule("f", (Meta("X"), Cons("b")), App(ident, Meta("X")), name="r2"),
        ))
        report = check_orthogonal(t)
        assert not report.ok and not report.notes
        [d] = report.problems
        assert d.code == "overlap"
        assert d.data["peak"] == Cons("f", (Cons("a"), Cons("b")))
        assert d.data["left"] == App(ident, Cons("b"))
        assert d.data["right"] == App(ident, Cons("a"))

    def test_rules_sharing_a_name_are_still_compared(self):
        # f(b) rewrites to b by "y" and to a by the second "x"
        a_ty = Cons("A")
        t = Theory((
            Declaration("A", (), TYPE),
            Declaration("a", (), a_ty),
            Declaration("b", (), a_ty),
            Declaration("f", (("x", a_ty),), a_ty),
        ), (
            RewriteRule("f", (Cons("a"),), Cons("a"), name="x"),
            RewriteRule("f", (Meta("X"),), Meta("X"), name="y"),
            RewriteRule("f", (Cons("b"),), Cons("a"), name="x"),
        ))
        report = check_orthogonal(t)
        [d] = report.problems
        assert d.code == "overlap"
        assert d.data["peak"] == Cons("f", (Cons("b"),))
        assert {d.data["left"], d.data["right"]} == {Cons("a"), Cons("b")}
        [note] = report.notes
        assert note.data["peak"] == Cons("f", (Cons("a"),))

    def test_nested_overlap_position_reported(self):
        t = extended(
            NAT, Declaration("g", (("n", N),), N),
            rules=(RewriteRule("g", (plus(Meta("a"), Meta("b")),), Z, name="g-plus"),))
        report = check_orthogonal(t)
        bad = [d for d in report.problems if d.code == "overlap"]
        assert bad and any("position [0]" in d.message for d in bad)

    def test_non_left_linear_flagged(self):
        t = extended(
            NAT, Declaration("eq", (("a", N), ("b", N)), N),
            rules=(RewriteRule("eq", (Meta("m"), Meta("m")), Z, name="eq-refl"),))
        report = check_orthogonal(t)
        assert any(d.code == "non-left-linear" for d in report.problems)
