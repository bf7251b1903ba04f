"""Concrete syntax: lexing, the four file formats, print-parse identity,
the one lexer, grammar and printer against the character loop and the
per-language ones in ``reference``, and malformed files."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pimod.corpus import CORPUS_NAMES, load_cases, load_sorts, read_text
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import (ESort, EVar, EptsContext, FiniteSortSpec, InternalizedSortSpec,
                        PApp, PLam, PPi, PSort, PVar, elaborate, elaborate_context,
                        erase_to_pts)
from pimod.errors import NonFunctionalSpec, ParseError, PimodError
from pimod.morphism import build_phi
from pimod.syntax import (fresh_names, lex, parse_dk_term, parse_epts_file,
                          parse_morphism, parse_pts_term, parse_sort_spec_file,
                          parse_theory, render, render_morphism, render_theory)
from pimod.terms import (KIND, TYPE, App, Cons, Declaration, DkContext, Lam, Meta,
                         Pi, RewriteRule, Theory, Var, validate_theory)
from strategies import FREE_NAMES, PARSE_THEORY, dk_terms, epts_terms, pts_terms
from systems import SYSTEM_F, SYSTEM_F_INT, load_case
from test_morphism import RENAME, SRC, _target


# the token alphabet, the longer punctuation marks, and characters that
# start a comment or a string or are outside the token language
LEX_PIECES = [*"aZ09_@%'(){}[],:.-> =\n", "-->", "->", ":=", "rule",
              '"r"', "\r", "\t", "#", '"', "$", "é"]


def _lexed(lexer, text: str):
    """What ``lexer`` makes of ``text``: each token as a tuple, or the
    error's message and span."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lexer(text)]
    except ParseError as e:
        return str(e), e.span


class TestLex:
    def test_identifiers_are_liberal(self):
        toks = lex("0 u@Type beta@%2A x' _v1")
        assert [t.text for t in toks[:-1]] == \
            ["0", "u@Type", "beta@%2A", "x'", "_v1"]
        assert all(t.kind == "ident" for t in toks[:-1])
        assert toks[-1].kind == "eof"

    def test_punctuation_longest_match(self):
        toks = lex("a --> b -> c := d")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("ident", "a"), ("punct", "-->"), ("ident", "b"), ("punct", "->"),
            ("ident", "c"), ("punct", ":="), ("ident", "d")]

    def test_strings_and_comments(self):
        toks = lex('rule "beta@Type@Type" x # trailing\ny')
        assert toks[1] == toks[1].__class__("string", "beta@Type@Type", 1, 6)
        assert (toks[3].text, toks[3].line, toks[3].col) == ("y", 2, 1)
        # a comment advances no column
        assert lex("x # c")[-1] == ("eof", "", 1, 3)

    def test_spans(self):
        toks = lex("ab\n  cd")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_lex_errors(self):
        with pytest.raises(ParseError) as e:
            lex('x "unterminated')
        assert e.value.span.col == 3
        with pytest.raises(ParseError) as e:
            lex("x\n $")
        assert (e.value.span.line, e.value.span.col) == (2, 2)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(LEX_PIECES)).map("".join))
    def test_agrees_with_the_character_loop(self, text):
        assert _lexed(lex, text) == _lexed(reference.lex, text)

    def test_agrees_with_the_character_loop_on_files(self):
        """The bundled files, the theories each encoding renders, and
        their mutants."""
        texts = [text for _, _, text in _fuzz_targets()]
        texts.append(read_text("bad_traditional.dk"))
        for i, text in enumerate(texts):
            for t in [text, *_mutants(text, str(i), 20)]:
                assert _lexed(lex, t) == _lexed(reference.lex, t), t


NAT = Theory(
    (Declaration("N", (), TYPE),
     Declaration("z", (), Cons("N")),
     Declaration("plus", (("m", Cons("N")), ("n", Cons("N"))), Cons("N"))),
    ())


class TestParseDkTerm:
    def test_binders_and_variables(self):
        assert parse_dk_term("lam x : N. x", NAT) == \
            Lam("x", Cons("N"), Var(0))
        assert parse_dk_term("lam x : N. lam x : N. x", NAT) == \
            Lam("x", Cons("N"), Lam("x", Cons("N"), Var(0)))
        assert parse_dk_term("Pi x : TYPE. KIND", NAT) == Pi("x", TYPE, KIND)

    def test_names_resolve_newest_last(self):
        assert parse_dk_term("a", NAT, names=("a", "b")) == Var(1)
        assert parse_dk_term("b", NAT, names=("a", "b")) == Var(0)

    def test_application_and_arrow(self):
        assert parse_dk_term("f x (f x x)", NAT, names=("f", "x")) == \
            App(App(Var(1), Var(0)), App(App(Var(1), Var(0)), Var(0)))
        assert parse_dk_term("N -> N", NAT) == reference.arrow(Cons("N"), Cons("N"))
        assert parse_dk_term("N -> N -> N", NAT) == \
            reference.arrow(Cons("N"), reference.arrow(Cons("N"), Cons("N")))

    def test_constant_application(self):
        assert parse_dk_term("plus(z, z)", NAT) == \
            Cons("plus", (Cons("z"), Cons("z")))
        assert parse_dk_term("z", NAT) == Cons("z")
        with pytest.raises(ParseError, match="takes 2 arguments, got 1"):
            parse_dk_term("plus(z)", NAT)
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_dk_term("mystery", NAT)

    def test_metas_only_in_rule_mode(self):
        assert parse_dk_term("plus(M, P)", NAT, metas=True) == \
            Cons("plus", (Meta("M"), Meta("P")))
        with pytest.raises(ParseError):
            parse_dk_term("plus(M, P)", NAT)

    def test_keywords_are_not_names(self):
        with pytest.raises(ParseError):
            parse_dk_term("lam rule : N. N", NAT)


THEORY_SRC = """\
# a universe with a decoding rule, in the generated-name style
constant U_Type : TYPE.
constant U_Kind : TYPE.
constant u_Type : U_Kind.
constant El_Kind (a : U_Kind) : TYPE.
rule "u-red" El_Kind (u_Type) --> U_Type.

assume A : El_Kind (u_Type).
check A : U_Type.
"""


class TestParseTheory:
    def test_full_file(self):
        f = parse_theory(THEORY_SRC)
        assert [d.name for d in f.theory.signature] == \
            ["U_Type", "U_Kind", "u_Type", "El_Kind"]
        assert f.theory.rules == (RewriteRule(
            "El_Kind", (Cons("u_Type"),), Cons("U_Type"), name="u-red"),)
        assert f.assumes.entries == (("A", Cons("El_Kind", (Cons("u_Type"),))),)
        assert f.checks == ((Var(0), Cons("U_Type")),)
        assert validate_theory(f.theory) == []

    def test_rules_get_default_names(self):
        f = parse_theory("constant c : TYPE.\nrule c --> c.\nrule c --> c.")
        assert [r.name for r in f.theory.rules] == ["rule-0", "rule-1"]

    def test_rule_lhs_must_be_a_constant(self):
        with pytest.raises(ParseError, match="left-hand side"):
            parse_theory("constant c : TYPE.\nrule X --> c.")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse_theory("constant c : TYPE\nconstant d : TYPE.")
        assert e.value.span.line == 2
        with pytest.raises(ParseError, match="expected 'constant'"):
            parse_theory("frobnicate.")


JUDGMENTS_SRC = """\
assume C : Type.
assume c : C.
def id : Pi A : Type. A -> A := lam A : Type. lam x : A. x.
def idC := id C.
"""


class TestParseEptsFile:
    def test_pts_terms(self):
        pid = parse_pts_term("lam A : Type. lam x : A. x", SYSTEM_F)
        assert pid == PLam("A", PSort("Type"), PLam("x", PVar(0), PVar(0)))
        assert parse_pts_term("A -> A", SYSTEM_F, names=("A",)) == \
            PPi("_", PVar(0), PVar(1))
        assert parse_pts_term("two", SYSTEM_F, names=("q",),
                              defs={"two": PVar(0)}) == PVar(0)
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_pts_term("Prop", SYSTEM_F)

    def test_definitions_are_inlined_and_shifted(self):
        f = parse_epts_file(JUDGMENTS_SRC, SYSTEM_F)
        assert f.assumes == (("C", PSort("Type")), ("c", PVar(0)))
        pid = PLam("A", PSort("Type"), PLam("x", PVar(0), PVar(0)))
        assert f.definitions == (("id", pid), ("idC", PApp(pid, PVar(1))))
        assert [j.name for j in f.judgments] == ["id"]
        assert f.judgments[0].type == \
            PPi("A", PSort("Type"), PPi("_", PVar(0), PVar(1)))

    def test_definitions_shift_past_later_assumptions(self):
        f = parse_epts_file("assume C : Type.\ndef t := C.\nassume c : C.",
                            SYSTEM_F)
        assert f.definitions == (("t", PVar(1)),)

    def test_rebinding_is_rejected(self):
        with pytest.raises(ParseError, match="already"):
            parse_epts_file("def Type := Type.", SYSTEM_F)
        with pytest.raises(ParseError, match="already"):
            parse_epts_file("assume a : Type.\ndef a := a.", SYSTEM_F)

    def test_judgments_elaborate(self):
        f = parse_epts_file(JUDGMENTS_SRC, SYSTEM_F)
        ctx = EptsContext()
        for h, ty in f.assumes:
            ctx = ctx.extend(h, elaborate(SYSTEM_F, ctx, ty))
        j = f.judgments[0]
        m = elaborate(SYSTEM_F, ctx, j.term)
        assert erase_to_pts(m) == j.term


SORTS_SRC = """\
[sorts]
Type Kind   # both fit on one line
[axioms]
Type : Kind
[rules]
(Type, Type) : Type
(Kind, Type) : Type
[internalized]
constant type : Sort.
constant kind : Sort.
rule "ax-type" Ax (type) --> kind.
rule "ru-tt" Ru (type, type) --> type.
rule "ru-kt" Ru (kind, type) --> type.
Type := type.
Kind := kind.
"""


class TestSortSpecFiles:
    def test_both_sections(self):
        f = parse_sort_spec_file(SORTS_SRC)
        assert f.finite == SYSTEM_F
        assert f.internalized == SYSTEM_F_INT

    def test_internalized_only(self):
        text = SORTS_SRC[SORTS_SRC.index("[internalized]"):]
        f = parse_sort_spec_file(text)
        assert f.finite is None and f.internalized == SYSTEM_F_INT

    def test_contradictory_axiom_is_rejected(self):
        with pytest.raises(NonFunctionalSpec):
            parse_sort_spec_file(
                "[sorts]\nA B\n[axioms]\nA : A\nA : B\n[rules]\n(A, A) : A")

    def test_malformed_lines_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse_sort_spec_file("[sorts]\nA\n[axioms]\nA A\n")
        assert e.value.span.line == 4
        with pytest.raises(ParseError, match="before the first section"):
            parse_sort_spec_file("A B\n[sorts]\nA B\n")

    def test_internalized_errors_carry_file_lines(self):
        text = SORTS_SRC + "Bad := kind kind ).\n"
        for t in (text, text.replace("\n", "\r\n")):
            with pytest.raises(ParseError) as e:
                parse_sort_spec_file(t, "bad.sorts")
            assert str(e.value) == "bad.sorts:16:18: expected ., found ')'"

    @pytest.mark.parametrize("text, error", [
        ("[internalized]\nconstant a : Sort.\x0cA := a.\n", "2:19: unexpected character '\\x0c'"),
        ("[sorts]\nA\n[internalized]\nconstant a : Sort.\rB := a a ).\n",
         "4:29: expected ., found ')'"),
        ("[internalized]\nconstant a : Sort\n", "3:1: expected . at end of input"),
    ])
    def test_lines_end_only_at_newline(self, text, error):
        """As in every other file kind: a form feed is no line break, a
        lone carriage return is a blank, and a final newline ends a line."""
        with pytest.raises(ParseError) as e:
            parse_sort_spec_file(text, "s.sorts")
        assert str(e.value) == f"s.sorts:{error}"

    @pytest.mark.parametrize("text", ["[internalized]\n", "[internalized]\n\n"])
    def test_an_empty_section_is_still_there(self, text):
        f = parse_sort_spec_file(text)
        assert f.finite is None and f.internalized == InternalizedSortSpec((), (), {})
        f = parse_sort_spec_file(text.replace("internalized", "sorts"))
        assert f.finite == FiniteSortSpec.build([], [], []) and f.internalized is None


class TestMorphismFiles:
    def test_parse_with_telescope_names(self):
        tgt = _target()
        mor = parse_morphism(
            "map N := M.\nmap z := o.\nmap s := succ(x).\n"
            "map f := fD(x).\nmap pair := mk(b, a).",
            SRC, tgt)
        assert mor.body == RENAME

    def test_parse_errors(self):
        tgt = _target()
        with pytest.raises(ParseError, match="not declared"):
            parse_morphism("map ghost := o.", SRC, tgt)
        with pytest.raises(ParseError, match="mapped twice"):
            parse_morphism("map z := o.\nmap z := o.", SRC, tgt)

    def test_render_round_trip(self):
        from pimod.morphism import TheoryMorphism
        mor = TheoryMorphism(SRC, _target(), dict(RENAME))
        back = parse_morphism(render_morphism(mor), SRC, _target())
        assert back.body == mor.body


# System F's sorts as nullary framework constants
SORTS_AS_CONSTANTS = Theory(tuple(Declaration(s, (), TYPE) for s in SYSTEM_F.sorts), ())


class TestPrintParseIdentity:
    @given(dk_terms())
    def test_dk_terms(self, t):
        text = render(t, names=FREE_NAMES)
        assert parse_dk_term(text, PARSE_THEORY, FREE_NAMES) == t

    @given(dk_terms(metas=True))
    def test_dk_rule_terms(self, t):
        text = render(t, names=FREE_NAMES)
        assert parse_dk_term(text, PARSE_THEORY, FREE_NAMES, metas=True) == t

    # binder hints that are also the names of System F's sorts
    @given(pts_terms(sorts=SYSTEM_F.sorts,
                     hints=st.sampled_from(["x", "y", *SYSTEM_F.sorts])))
    def test_pts_terms(self, t):
        text = render(t, FREE_NAMES, avoid=SYSTEM_F.sorts)
        assert parse_pts_term(text, SYSTEM_F, FREE_NAMES) == t

    @given(pts_terms(sorts=SYSTEM_F.sorts))
    def test_pts_terms_are_framework_terms(self, t):
        """A source term reads back through the framework grammar, against
        a theory that declares each sort as a nullary constant."""
        text = render(t, names=FREE_NAMES)
        assert parse_dk_term(text, SORTS_AS_CONSTANTS, FREE_NAMES) == t

    def test_theory_round_trip_on_generated_encodings(self):
        # telescope hints may be freshened against constant names (MLTT
        # declares a constant 's' that collides with a binder hint), so
        # the round trip is the identity up to hints, and printing the
        # reparsed theory reaches a fixpoint
        def shape(th):
            return ([(d.name, tuple(ty for _, ty in d.telescope), d.result)
                     for d in th.signature], th.rules)

        from test_encode import MLTT_ENC, SF_ENC
        for enc in (SF_ENC, MLTT_ENC):
            text = render_theory(enc.theory)
            f = parse_theory(text)
            assert shape(f.theory) == shape(enc.theory)
            assert render_theory(f.theory) == text

    def test_theory_round_trip_with_judgments(self):
        f = parse_theory(THEORY_SRC)
        text = render_theory(f.theory, f.assumes, f.checks)
        g = parse_theory(text)
        assert (g.theory, g.assumes.entries, g.checks) == \
            (f.theory, f.assumes.entries, f.checks)


class TestRenderContext:
    """A context prints as the ``assume`` lines of ``render_theory``."""

    # ``x``'s type is the first ``A``, which a repeated hint would shadow
    DK_CTX = DkContext().extend("A", TYPE).extend("A", TYPE).extend("x", Var(1))

    def test_repeated_hints_are_freshened(self):
        assert render_theory(Theory(()), self.DK_CTX).splitlines() == [
            "assume A : TYPE.", "assume A' : TYPE.", "assume x : A."]
        ctx = (EptsContext().extend("A", ESort("Type")).extend("A", ESort("Type"))
               .extend("x", EVar(1)))
        assert render_theory(Theory(()), ctx).splitlines() == [
            "assume A : Type.", "assume A' : Type.", "assume x : A."]

    def test_agrees_with_the_theory_printer(self):
        """Each entry's type, printed over the names before it freshened
        as the command-line traces freshen them, is its ``assume`` line."""
        names = fresh_names(self.DK_CTX.names)
        lines = render_theory(Theory(()), self.DK_CTX).splitlines()
        assert [f"assume {n} : {render(ty, names[:k])}."
                for k, (n, (_, ty)) in enumerate(zip(names, self.DK_CTX.entries))] == lines

    def test_render_rejects_contexts_theories_and_untyped_terms(self):
        for x in (self.DK_CTX, Theory(()), reference.SLam("x", reference.SVar(0))):
            with pytest.raises(TypeError):
                render(x)


# --- the one grammar and the one printer against the per-language ones ---

# free names and avoided names that collide with the strategies' binder hints
NAMES = st.lists(st.sampled_from(["x", "y", "v0", "x'"]), max_size=3).map(tuple)
AVOID = st.sets(st.sampled_from(["x", "y", "z", "w", "x'", "c0"]))

TOKENS = ["(", ")", ".", ":", ",", "->", "-->", ":=", "lam", "Pi", "TYPE", "KIND",
          "Type", "Kind", "c0", "g1", "h2", "M", "two", "x", "zz", "rule", '"s"']

MALFORMED = [
    "", "TYPE", "KIND", "x TYPE", "lam x : TYPE. x", "Pi x : KIND. x", "TYPE -> x",
    "(", ")", "x )", "(x", "x ->", "-> x", "lam", "lam x", "lam x :", "lam x : x",
    "lam x : x.", "Pi x . x", "lam rule : x. x", "c0(", "g1", "g1 x", "g1(x",
    "g1(x, x)", "h2(x)", "h2(x,)", "M", "g1(M)", "two", "Type", "Kind -> Type",
    "x . y", "x : y", "x := y", "x --> y", '"s"', "x, y", "zz", "x\n  ( y",
]


@st.composite
def mangled(draw, text):
    """``text`` with a few spans deleted and a few tokens inserted."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        else:
            text = f"{text[:i]} {draw(st.sampled_from(TOKENS))} {text[i:]}"
    return text


def _parsed(parse, text, *args):
    """The term ``text`` parses to, hints included, or the error and its place."""
    try:
        return repr(parse(text, *args))
    except ParseError as e:
        return str(e)


class TestAgainstPerLanguageCode:
    @pytest.mark.parametrize("terms", [
        dk_terms(metas=True), pts_terms(), epts_terms()],
        ids=["framework", "source", "explicit"])
    @settings(max_examples=150)
    @given(data=st.data(), names=NAMES, avoid=AVOID)
    def test_render(self, terms, data, names, avoid):
        t = data.draw(terms)
        assert render(t, names, avoid) == reference.render(t, names, avoid)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_parse_fixed_texts(self, text):
        names = ("x", "y")
        for metas in (False, True):
            assert _parsed(parse_dk_term, text, PARSE_THEORY, names, metas) == \
                _parsed(reference.parse_dk_term, text, PARSE_THEORY, names, metas)
        defs = {"two": PSort("Type")}
        assert _parsed(parse_pts_term, text, SYSTEM_F, names, defs) == \
            _parsed(reference.parse_pts_term, text, SYSTEM_F, names, defs)

    @settings(max_examples=200)
    @given(dk_terms(metas=True), NAMES, st.booleans(), st.data())
    def test_parse_framework_text(self, t, names, metas, data):
        text = data.draw(mangled(render(t, names)))
        assert _parsed(parse_dk_term, text, PARSE_THEORY, names, metas) == \
            _parsed(reference.parse_dk_term, text, PARSE_THEORY, names, metas)

    @settings(max_examples=200)
    @given(pts_terms(sorts=("Type", "Kind")), NAMES, st.data())
    def test_parse_source_text(self, t, names, data):
        text = data.draw(mangled(render(t, names)))
        defs = {"two": PSort("Type")}
        assert _parsed(parse_pts_term, text, SYSTEM_F, names, defs) == \
            _parsed(reference.parse_pts_term, text, SYSTEM_F, names, defs)


# --- malformed files ----------------------------------------------------------

FILE_TOKENS = ["(", ")", ".", ":", ",", ":=", "-->", "->", "lam", "Pi", "TYPE",
               "KIND", "constant", "rule", "assume", "check", "def", "map", "Sort",
               "Ax", '"r"', '"', "#", "\n[sorts]\n", "\n[axioms]\n", "\n[rules]\n",
               "\n[internalized]\n"]


def _mutants(text: str, seed: str, n: int):
    """``n`` copies of ``text``, each with one to four spans deleted or
    tokens inserted."""
    rng = random.Random(seed)
    for _ in range(n):
        t = text
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(t) + 1)
            if rng.random() < 0.5:
                t = t[:i] + t[i + rng.randint(1, 24):]
            else:
                tok = rng.choice(FILE_TOKENS)
                t = t[:i] + (f" {tok} " if rng.random() < 0.5 else tok) + t[i:]
        yield t


def _judgments_file(case) -> str:
    """The judgments file ``pimod encode`` writes for a corpus case."""
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    checks = [(translate(enc, elaborate(case.spec, ctx, j.term)),
               expected_dk_type(enc, ctx, elaborate(case.spec, ctx, j.type)))
              for j in case.file.judgments]
    return render_theory(enc.theory, translate_ctx(enc, ctx), checks)


def _fuzz_targets():
    """(name, parser, text): the bundled files, the theories and judgments
    the encoder emits, and the finite-to-internalized map of System F."""
    for name in CORPUS_NAMES:
        yield f"{name}.sorts", parse_sort_spec_file, read_text(f"{name}.sorts")
    for case in load_cases():
        spec = case.spec
        yield (f"{case.label}.epts", lambda t, spec=spec: parse_epts_file(t, spec),
               read_text(f"{case.corpus}.epts"))
        yield f"{case.label}_theory.dk", parse_theory, render_theory(generate(spec).theory)
    case = load_case("systemf", "finite")
    yield "systemf/finite_judgments.dk", parse_theory, _judgments_file(case)
    sf = load_sorts("systemf")
    src, dst = generate(sf.finite), generate(sf.internalized)
    yield ("systemf.map",
           lambda t: parse_morphism(t, src.theory, dst.theory),
           render_morphism(build_phi(src, dst)))


class TestMalformedFiles:
    def test_only_pimod_errors_escape(self):
        for name, parse, text in _fuzz_targets():
            for i, mutant in enumerate(_mutants(text, name, 40)):
                try:
                    parse(mutant)
                except PimodError:
                    pass
                except Exception as e:
                    raise AssertionError(f"mutant {i} of {name}: {e!r}") from e
