"""Specifications, small terms, a theory builder, a loader for one
bundled system in one mode, and the framework's weak-head normalizer and
one-step reducts on terms, shared across the test modules.  The one-step
reducts are ``reference.reducts``, the tree walk that lists every
position of every redex."""

from pimod.corpus import CorpusCase, load_sorts, read_text
from pimod.epts import FiniteSortSpec, InternalizedSortSpec, PLam, PPi, PSort, PVar
from pimod.rewrite import Fuel, Machine
from pimod.syntax import parse_epts_file
from pimod.terms import Cons, Declaration, DkTerm, Meta, RewriteRule, Theory
from reference import reducts  # noqa: F401  (re-exported)

SYSTEM_F = FiniteSortSpec.build(
    ["Type", "Kind"],
    [("Type", "Kind")],
    [("Type", "Type", "Type"), ("Kind", "Type", "Type")])

SYSTEM_F_INT = InternalizedSortSpec(
    constants=(Declaration("type", (), Cons("Sort")),
               Declaration("kind", (), Cons("Sort"))),
    rules=(RewriteRule("Ax", (Cons("type"),), Cons("kind"), name="ax-type"),
           RewriteRule("Ru", (Cons("type"), Cons("type")), Cons("type"), name="ru-tt"),
           RewriteRule("Ru", (Cons("kind"), Cons("type")), Cons("type"), name="ru-kt")),
    named={"Type": Cons("type"), "Kind": Cons("kind")})

COC = FiniteSortSpec.build(
    ["Prop", "Type"],
    [("Prop", "Type")],
    [("Prop", "Prop", "Prop"), ("Prop", "Type", "Type"),
     ("Type", "Prop", "Prop"), ("Type", "Type", "Type")])

TYPETYPE = FiniteSortSpec.build(
    ["star"], [("star", "star")], [("star", "star", "star")])

MLTT_FIN = FiniteSortSpec.build(
    ["0", "1", "2", "3"],
    [("0", "1"), ("1", "2"), ("2", "3")],
    [(a, b, str(max(int(a), int(b))))
     for a in "012" for b in "012"])


def _nat(n: int):
    t = Cons("z")
    for _ in range(n):
        t = Cons("s", (t,))
    return t


MLTT_INT = InternalizedSortSpec(
    constants=(Declaration("z", (), Cons("Sort")),
               Declaration("s", (("n", Cons("Sort")),), Cons("Sort"))),
    rules=(RewriteRule("Ax", (Meta("n"),), Cons("s", (Meta("n"),)), name="ax"),
           RewriteRule("Ru", (Cons("z"), Meta("n")), Meta("n"), name="ru-zl"),
           RewriteRule("Ru", (Meta("n"), Cons("z")), Meta("n"), name="ru-zr"),
           RewriteRule("Ru", (Cons("s", (Meta("m"),)), Cons("s", (Meta("n"),))),
                       Cons("s", (Cons("Ru", (Meta("m"), Meta("n"))),)),
                       name="ru-ss")),
    named={str(k): _nat(k) for k in range(4)})


def zs_tower(levels: int) -> InternalizedSortSpec:
    """MLTT's internalized universes with ``levels`` of them named, 0 up."""
    return InternalizedSortSpec(MLTT_INT.constants, MLTT_INT.rules,
                                {str(k): _nat(k) for k in range(levels)})


def whnf(theory: Theory, t: DkTerm, fuel: int | Fuel | None = None) -> DkTerm:
    """Weak-head normal form of ``t`` under beta and the theory's rules:
    :meth:`pimod.rewrite.Machine.whnf`, quoted."""
    m = Machine(theory, Fuel.of(fuel))
    return m.quote(m.whnf(m.clo(t, ())), 0)


def extended(theory: Theory, *decls: Declaration,
             rules: tuple[RewriteRule, ...] = ()) -> Theory:
    """``theory`` with ``decls`` declared and ``rules`` added after its own."""
    return Theory(theory.signature + decls, theory.rules + tuple(rules))


def load_case(corpus: str, mode: str) -> CorpusCase:
    """The bundled system ``corpus`` under ``mode``, ``"finite"`` or
    ``"internalized"``; ``KeyError`` when its sort file has no such half."""
    spec = getattr(load_sorts(corpus), mode)
    if spec is None:
        raise KeyError(f"{corpus} has no {mode} specification")
    fname = f"{corpus}.epts"
    return CorpusCase(corpus, mode, spec, parse_epts_file(read_text(fname), spec, source=fname))


# implicit-syntax staples (System F unless noted)

PID = PLam("A", PSort("Type"), PLam("x", PVar(0), PVar(0)))
PID_TYPE = PPi("A", PSort("Type"), PPi("x", PVar(0), PVar(1)))
POLY = PPi("B", PSort("Type"), PPi("y", PVar(0), PVar(1)))
