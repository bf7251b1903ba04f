"""The indexed critical-pair search agrees with the exhaustive one.

``reference.check_orthogonal`` renames every ordered pair of rules apart
and unifies every pattern position with every rule.  The library unifies
a position only with rules headed by its constant and renames each rule
once per side; the reports must be equal, diagnostics and order alike,
on every theory whose rule names are unique.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pimod.rewrite as rewrite
import reference as ref
from pimod.corpus import load_cases
from pimod.encode import generate
from pimod.rewrite import check_orthogonal
from pimod.syntax import parse_sort_spec_file
from pimod.terms import App, Cons, Meta, RewriteRule, Term, Theory
from strategies import META_NAMES, dk_terms


def tower_sorts(levels: int) -> str:
    """``levels`` + 1 predicative universes with (i, j) : max(i, j) below
    the top, and the zero/successor/max internalization."""
    names = [f"u{i}" for i in range(levels + 1)]
    lines = ["[sorts]", " ".join(names), "[axioms]"]
    lines += [f"{names[i]} : {names[i + 1]}" for i in range(levels)]
    lines += ["[rules]"]
    lines += [f"({names[i]}, {names[j]}) : {names[max(i, j)]}"
              for i in range(levels) for j in range(levels)]
    lines += ["[internalized]",
              "constant z : Sort.",
              "constant s (n : Sort) : Sort.",
              'rule "ax" Ax(n) --> s(n).',
              'rule "ru-zl" Ru(z, n) --> n.',
              'rule "ru-zr" Ru(n, z) --> n.',
              'rule "ru-ss" Ru(s(m), s(n)) --> s(Ru(m, n)).']
    lines += [f"{name} := {'s(' * i}z{')' * i}." for i, name in enumerate(names)]
    return "\n".join(lines) + "\n"


def tower_theories(levels: int) -> list[Theory]:
    sf = parse_sort_spec_file(tower_sorts(levels), source=f"tower{levels}.sorts")
    return [generate(sf.finite).theory, generate(sf.internalized).theory]


def assert_same_report(theory: Theory) -> None:
    got = check_orthogonal(theory)
    want = ref.check_orthogonal(theory)
    assert got.problems == want.problems
    assert got.notes == want.notes


# Rule heads with their arities: two heads, so rules meet at the root and
# under one another.  ``a``/``b`` are the constant leaves of patterns.
HEADS = {"f": 1, "g": 2}

patterns = st.recursive(
    st.one_of(st.builds(Meta, st.sampled_from(META_NAMES)),
              st.sampled_from([Cons("a"), Cons("b")])),
    lambda ch: st.one_of(*[st.builds(lambda *args, n=n: Cons(n, args), *[ch] * k)
                           for n, k in HEADS.items()]),
    max_leaves=4)


@st.composite
def rule_theories(draw):
    rules = []
    for k in range(draw(st.integers(1, 5))):
        head = draw(st.sampled_from(sorted(HEADS)))
        lhs = tuple(draw(patterns) for _ in range(HEADS[head]))
        rhs = draw(st.one_of(patterns, dk_terms(max_free=0, metas=True, max_leaves=6)))
        rules.append(RewriteRule(head, lhs, rhs, name=f"r{k}"))
    return Theory((), tuple(rules))


class TestAgainstExhaustiveSearch:
    @pytest.mark.parametrize("case", load_cases(), ids=lambda c: c.label)
    def test_bundled_encodings(self, case):
        assert_same_report(generate(case.spec).theory)

    @pytest.mark.parametrize("levels", range(2, 9))
    def test_towers(self, levels):
        for theory in tower_theories(levels):
            assert_same_report(theory)

    @given(rule_theories())
    def test_generated_rule_sets(self, theory):
        assert_same_report(theory)


@st.composite
def any_lhs_theories(draw):
    """Rule sets whose left-hand arguments may be any term: applications,
    binders and variables below and beside pattern variables."""
    args = st.one_of(patterns, dk_terms(max_free=1, sorts=False, metas=True, max_leaves=4))
    rules = []
    for k in range(draw(st.integers(1, 4))):
        head = draw(st.sampled_from(sorted(HEADS)))
        lhs = tuple(draw(args) for _ in range(HEADS[head]))
        rules.append(RewriteRule(head, lhs, draw(patterns), name=f"r{k}"))
    return Theory((), tuple(rules))


def is_instance(pattern: Term, t: Term, env: dict) -> bool:
    """Is ``t`` ``pattern`` with its pattern variables replaced alike?"""
    if type(pattern) is Meta:
        return env.setdefault(pattern.name, t) == t
    if not pattern.children():
        return pattern == t
    return pattern.same_node(t) and all(
        is_instance(p, u, env) for (p, _), (u, _) in zip(pattern.children(), t.children()))


@settings(max_examples=150)
@given(any_lhs_theories())
@example(Theory((), (RewriteRule("g", (Meta("M"), Meta("M")), Meta("M"), "r0"),
                     RewriteRule("g", (App(Meta("N"), Meta("P")), Meta("N")), Cons("a"), "r1"))))
def test_non_pattern_left_hand_sides_are_analyzed(theory):
    # the occurs check must see every node, or a pattern variable is bound
    # to a term containing it and the peak never ends; each peak is an
    # instance of the outer left-hand side, with one of the inner at the
    # overlap's position
    rules = {r.name: Cons(r.head, r.lhs) for r in theory.rules}
    report = check_orthogonal(theory)
    for d in report.problems + report.notes:
        if d.code != "overlap":
            continue
        inner, outer, path = re.fullmatch(
            r"rule '(\w+)' overlaps '(\w+)' at position (\[.*\])( .*)?", d.message).groups()[:3]
        peak = d.data["peak"]
        assert is_instance(rules[outer], peak, {})
        for i in json.loads(path):
            peak = peak.args[i]
        assert is_instance(rules[inner], peak, {})


def test_rules_renamed_once_and_unified_only_under_matching_heads(monkeypatch):
    theory = tower_theories(4)[1]
    renamed: list[str] = []
    unified: list[tuple[str, str]] = []
    depth = 0
    rename, unify = rewrite._rename_metas, rewrite._unify

    def spy_rename(t, suffix):
        renamed.append(suffix)
        return rename(t, suffix)

    def spy_unify(a, b, sub):
        nonlocal depth
        if depth == 0:
            unified.append((a.name, b.name))
        depth += 1
        try:
            return unify(a, b, sub)
        finally:
            depth -= 1

    monkeypatch.setattr(rewrite, "_rename_metas", spy_rename)
    monkeypatch.setattr(rewrite, "_unify", spy_unify)
    report = check_orthogonal(theory)
    # one renaming per left-hand argument and one for the right-hand side
    per_side = sum(len(r.lhs) + 1 for r in theory.rules)
    assert renamed.count("#1") == renamed.count("#2") == per_side
    assert unified and all(a == b for a, b in unified)
    assert len(report.notes) == 1
