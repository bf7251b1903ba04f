"""Term algebra: de Bruijn arithmetic, alpha equality, node memos, theory
hygiene."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimod.errors import UnboundVariable
from pimod.terms import (KIND, TYPE, App, Cons, Declaration, DkContext, Lam,
                         Meta, NodeMemo, Pi, RewriteRule, Theory, Var,
                         max_free_index, metas_of, shift, subst, subst_many,
                         validate_theory)
from strategies import dk_terms
from systems import extended


class TestShiftSubst:
    @given(dk_terms())
    def test_shift_zero_is_identity(self, t):
        assert shift(t, 0) is t

    @given(dk_terms(), st.integers(0, 3), st.integers(0, 3))
    def test_shift_composes(self, t, a, b):
        assert shift(shift(t, a), b) == shift(t, a + b)

    @given(dk_terms(), dk_terms())
    def test_subst_undoes_shift(self, t, v):
        assert subst(shift(t, 1), 0, v) == t

    @given(dk_terms(max_free=2), dk_terms(max_free=0), st.integers(1, 3))
    def test_shift_commutes_with_closed_subst(self, t, v, by):
        # substituting a closed value then weakening == weakening then
        # substituting at the shifted index
        assert shift(subst(t, 0, v), by) == subst(shift(t, by, 1), 0, v)

    def test_subst_decrements_higher_indices(self):
        assert subst(Var(2), 0, Cons("c0")) == Var(1)
        assert subst(Var(0), 0, Cons("c0")) == Cons("c0")
        assert subst(Var(0), 1, Cons("c0")) == Var(0)

    def test_subst_shifts_value_under_binder(self):
        t = Lam("x", TYPE, App(Var(0), Var(1)))
        assert subst(t, 0, Var(3)) == Lam("x", TYPE, App(Var(0), Var(4)))

    def test_subst_many_is_simultaneous(self):
        t = App(App(Var(0), Var(1)), Var(2))
        out = subst_many(t, (Cons("c0"), Var(0)))
        # v0 := c0, v1 := v0 (both at root depth), v2 drops to v0
        assert out == App(App(Cons("c0"), Var(0)), Var(0))

    @given(dk_terms(max_free=1), dk_terms(max_free=0))
    def test_subst_many_singleton_is_subst(self, t, v):
        assert subst_many(t, (v,)) == subst(t, 0, v)


class TestAlphaAndSpine:
    def test_hints_do_not_matter(self):
        assert Lam("x", TYPE, Var(0)) == Lam("y", TYPE, Var(0))
        assert Pi("a", TYPE, Var(0)) == Pi("b", TYPE, Var(0))
        assert hash(Lam("x", TYPE, Var(0))) == hash(Lam("y", TYPE, Var(0)))

    def test_structure_does_matter(self):
        assert Lam("x", TYPE, Var(0)) != Lam("x", KIND, Var(0))
        assert Var(0) != Var(1)

    def test_metas_and_free_indices(self):
        t = Lam("x", Meta("M"), App(Var(0), App(Var(3), Meta("N"))))
        assert metas_of(t) == {"M", "N"}
        assert max_free_index(t) == 2
        assert max_free_index(Cons("c0")) == -1


class TestNodeMemo:
    def test_put_pins_the_key_node_while_the_table_lives(self):
        memo = NodeMemo()
        node = App(Var(0), Cons("c0"))
        alive = weakref.ref(node)
        memo.put(id(node), "image", node)
        del node
        gc.collect()
        assert alive() is not None
        assert memo.get(id(alive())) == "image"
        del memo
        gc.collect()
        assert alive() is None

    def test_equal_nodes_get_entries_of_their_own(self):
        memo = NodeMemo()
        a, b = App(Var(0), Cons("c0")), App(Var(0), Cons("c0"))
        assert a == b and a is not b
        memo.put(id(a), "a", a)
        memo.put((id(a), id(b)), "ab", (a, b))
        assert id(b) not in memo
        memo.put(id(b), "b", b)
        assert (memo.get(id(a)), memo.get(id(b)), memo.get((id(a), id(b)))) == ("a", "b", "ab")


class TestContext:
    def test_type_of_weakens_to_full_context(self):
        ctx = DkContext().extend("A", TYPE).extend("x", Var(0))
        assert ctx.type_of(0) == Var(1)   # x : A, seen from under both entries
        assert ctx.type_of(1) == TYPE
        assert ctx.names == ["A", "x"]
        assert len(ctx) == 2


def _theory(decls, rules=()):
    return Theory(tuple(decls), tuple(rules))


class TestValidateTheory:
    GOOD = _theory(
        [Declaration("N", (), TYPE),
         Declaration("z", (), Cons("N")),
         Declaration("s", (("n", Cons("N")),), Cons("N")),
         Declaration("p", (("m", Cons("N")), ("n", Cons("N"))), Cons("N"))],
        [RewriteRule("p", (Cons("z"), Meta("n")), Meta("n"), name="p-z"),
         RewriteRule("p", (Cons("s", (Meta("m"),)), Meta("n")),
                     Cons("s", (Cons("p", (Meta("m"), Meta("n"))),)), name="p-s")])

    def test_good_theory_is_clean(self):
        assert validate_theory(self.GOOD) == []

    def _codes(self, theory):
        return {d.code for d in validate_theory(theory)}

    def test_duplicate_constant(self):
        t = _theory([Declaration("N", (), TYPE), Declaration("N", (), TYPE)])
        assert "duplicate-constant" in self._codes(t)

    def test_unknown_constant_in_declaration(self):
        t = _theory([Declaration("z", (), Cons("N"))])
        assert "unknown-constant" in self._codes(t)

    def test_wrong_arity_in_rule_head(self):
        t = extended(self.GOOD, rules=(
            RewriteRule("s", (Meta("a"), Meta("b")), Meta("a"), name="bad"),))
        assert "arity-mismatch" in self._codes(t)

    def test_lambda_in_pattern_rejected(self):
        t = extended(self.GOOD, rules=(
            RewriteRule("s", (Lam("x", TYPE, Meta("m")),), Cons("z"), name="bad"),))
        assert "bad-pattern" in self._codes(t)

    def test_non_left_linear(self):
        t = extended(self.GOOD, rules=(
            RewriteRule("p", (Meta("n"), Meta("n")), Meta("n"), name="dup"),))
        assert "non-left-linear" in self._codes(t)

    def test_rhs_must_use_lhs_metas(self):
        t = extended(self.GOOD, rules=(
            RewriteRule("s", (Meta("m"),), Meta("q"), name="loose"),))
        assert "unbound-pattern-variable" in self._codes(t)

    def test_meta_shadowing_constant(self):
        t = extended(self.GOOD, rules=(
            RewriteRule("s", (Meta("z"),), Meta("z"), name="shadow"),))
        assert "meta-shadows-constant" in self._codes(t)

    def test_lookup_tables(self):
        assert self.GOOD.decl("p").arity == 2
        assert self.GOOD.decl("missing") is None
        assert [r.name for r in self.GOOD.rules_for("p")] == ["p-z", "p-s"]
        assert self.GOOD.rules_for("z") == ()


class TestClosedByConstruction:
    """A theory mentions no variable outside a telescope or a rule's
    pattern variables: building any other raises ``UnboundVariable``."""

    N = Cons("N")

    def test_open_right_hand_side(self):
        # the closure kernel and the term kernel would read v0 in
        # different contexts when g(z)'s type P(f(z)) is converted
        N = self.N
        decls = [Declaration("N", (), TYPE), Declaration("z", (), N),
                 Declaration("f", (("m", N),), N), Declaration("P", (("n", N),), TYPE),
                 Declaration("g", (("m", N),), Cons("P", (Cons("f", (Var(0),)),)))]
        with pytest.raises(UnboundVariable) as e:
            _theory(decls, [RewriteRule("f", (Meta("x"),), Var(0), name="open")])
        assert e.value.message == "rule 'open': right-hand side has free de Bruijn variables"
        # a variable bound inside the right-hand side is not free
        _theory(decls, [RewriteRule("f", (Meta("x"),), App(Lam("y", N, Var(0)), Meta("x")),
                                    name="closed")])

    def test_open_telescope_entry(self):
        N = self.N
        with pytest.raises(UnboundVariable) as e:
            _theory([Declaration("N", (), TYPE), Declaration("f", (("x", TYPE), ("y", Var(1))), N)])
        assert e.value.message == "telescope entry 1 of 'f' mentions variables outside the telescope"
        _theory([Declaration("N", (), TYPE), Declaration("f", (("x", TYPE), ("y", Var(0))), N)])

    def test_open_result_type(self):
        with pytest.raises(UnboundVariable) as e:
            _theory([Declaration("c", (("x", TYPE),), Var(1))])
        assert e.value.message == "result type of 'c' mentions variables outside the telescope"
        _theory([Declaration("c", (("x", TYPE),), Pi("y", Var(0), Var(1)))])
