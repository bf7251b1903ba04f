"""The kernel on closures against the term-rewriting kernel it replaced.

``reference`` keeps the old kernel: it substitutes into telescopes,
weakens context entries on lookup, contracts redexes by substitution and
types every occurrence of a shared subterm anew.  On the same input both
must give the same quoted types, the same log (hints included), and the
same failure: exception class, message, ``expected`` and ``actual``.
The closure kernel may skip work the old one repeats on shared
subterms, so it spends at most the old kernel's ticks, and exactly as
many on parsed input, which shares nothing.  The memo-safety tests at
the end each fail against a memo keyed on too little or kept too long.
"""

import gc
import random

import pytest
from hypothesis import given

import reference as ref
from pimod.cli import main
from pimod.corpus import load_cases, read_text
from pimod.decode import conservative_invert
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import EptsContext, PLam, PSort, PVar, elaborate, elaborate_context, epts_infer
from pimod.errors import FuelExhausted, PimodError, TypeMismatch
from pimod.kernel import check, check_context, check_signature, infer
from pimod.rewrite import Fuel, convertible
from pimod.syntax import fresh_names, parse_dk_term, parse_theory, render, render_theory
from pimod.terms import KIND, TYPE, App, Cons, Declaration, Lam, Meta, Pi, Theory, Var
from strategies import dk_terms
from systems import SYSTEM_F, whnf
from termgen import GEN_THEORY, beta_expand, gen_judgment
from test_child_map import CONV_THEORY
from test_kernel import EMPTY, N, VEC, Z, plus, s, vec

CASES = load_cases()


def run(fn, *args):
    """``fn(*args, fuel, log)`` as (result, failure, log, ticks); the
    result and the failure are compared through ``repr``, which shows
    binder hints."""
    f, log = Fuel(), []
    try:
        out, err = fn(*args, f, log), None
    except PimodError as e:
        out, err = None, e
    failure = None if err is None else (
        type(err), err.message, err.names, repr(err.info), str(err),
        repr(getattr(err, "expected", None)), repr(getattr(err, "actual", None)))
    return repr(out), failure, repr(log), f.limit - f.remaining


def same(new, old, *args, equal_ticks=False):
    got, want = run(new, *args), run(old, *args)
    assert got[:3] == want[:3]
    if equal_ticks:
        assert got[3] == want[3]
    else:
        assert got[3] <= want[3]
    return got


def corpus_judgments(case):
    """(encoding, image context, [(image, expected type)]) for one case."""
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    out = []
    for j in case.file.judgments:
        m = elaborate(case.spec, ctx, j.term)
        a = elaborate(case.spec, ctx, j.type)
        out.append((translate(enc, m), expected_dk_type(enc, ctx, a)))
    return enc, translate_ctx(enc, ctx), out


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
class TestCorpus:
    def test_signature_and_context(self, case):
        enc, dctx, _ = corpus_judgments(case)
        same(check_signature, ref.check_signature, enc.theory)
        same(check_context, ref.check_context, enc.theory, dctx)

    def test_judgment_images(self, case):
        enc, dctx, judgments = corpus_judgments(case)
        assert judgments
        for img, want in judgments:
            same(check, ref.kernel_check, enc.theory, dctx, img, want)
            same(infer, ref.kernel_infer, enc.theory, dctx, img)

    def test_parsed_judgments_spend_equal_ticks(self, case):
        enc, dctx, judgments = corpus_judgments(case)
        tf = parse_theory(render_theory(enc.theory, dctx, judgments))
        same(check_signature, ref.check_signature, tf.theory, equal_ticks=True)
        same(check_context, ref.check_context, tf.theory, tf.assumes, equal_ticks=True)
        for m, a in tf.checks:
            same(check, ref.kernel_check, tf.theory, tf.assumes, m, a, equal_ticks=True)


def test_generated_judgments():
    rng = random.Random(11)
    for _ in range(40):
        ctx, t, ty = gen_judgment(rng, depth=5)
        same(check, ref.kernel_check, GEN_THEORY, ctx, t, ty)
        same(infer, ref.kernel_infer, GEN_THEORY, ctx, t)
        wrapped = beta_expand(rng, GEN_THEORY, ctx, t)
        same(check, ref.kernel_check, GEN_THEORY, ctx, wrapped, ty)


@given(dk_terms())
def test_whnf_of_raw_terms(t):
    # raw terms carry free variables and redexes under binders; the budget
    # is small so that looping rules run out on both sides alike
    def outcome(fn):
        f = Fuel(60)
        try:
            return repr(fn(CONV_THEORY, t, f)), f.remaining
        except FuelExhausted:
            return "exhausted", f.remaining
    assert outcome(whnf) == outcome(ref.whnf)


def test_whnf_of_an_under_applied_constant():
    # the rules of app@Kind@Type match four arguments; here it has none
    theory = generate(SYSTEM_F).theory
    t = Cons("app@Kind@Type", ())
    assert whnf(theory, t) == ref.whnf(theory, t) == t
    assert not convertible(theory, t, TYPE)
    assert not ref.convertible(theory, t, TYPE)


def test_parsed_bad_traditional_theory():
    tf = parse_theory(read_text("bad_traditional.dk"))
    same(check_signature, ref.check_signature, tf.theory, equal_ticks=True)
    for m, a in tf.checks:
        same(check, ref.kernel_check, tf.theory, tf.assumes, m, a, equal_ticks=True)


TRAPS = [
    (infer, ref.kernel_infer, VEC, EMPTY, Var(0)),
    (infer, ref.kernel_infer, VEC, EMPTY, Meta("m")),
    (infer, ref.kernel_infer, VEC, EMPTY, KIND),
    (infer, ref.kernel_infer, VEC, EMPTY, Cons("ghost")),
    (infer, ref.kernel_infer, VEC, EMPTY, Cons("s", ())),
    (infer, ref.kernel_infer, VEC, EMPTY, Cons("z", (Z,))),
    (infer, ref.kernel_infer, VEC, EMPTY, App(Z, Z)),
    (infer, ref.kernel_infer, VEC, EMPTY, App(Lam("f", Pi("x", N, N), App(Var(0), Z)), Z)),
    (infer, ref.kernel_infer, VEC, EMPTY, Lam("x", Z, Var(0))),
    (infer, ref.kernel_infer, VEC, EMPTY, Lam("x", TYPE, Var(0))),
    (infer, ref.kernel_infer, VEC, EMPTY, Lam("x", N, TYPE)),
    (infer, ref.kernel_infer, VEC, EMPTY, Pi("x", N, Z)),
    (infer, ref.kernel_infer, VEC, EMPTY, Cons("cons", (Z, N, Cons("nil")))),
    (check, ref.kernel_check, VEC, EMPTY, Cons("nil"), vec(s(Z))),
    (check, ref.kernel_check, VEC, EMPTY, Lam("x", N, Var(0)), Pi("y", N, vec(Var(0)))),
    (check, ref.kernel_check, VEC, EMPTY.extend("n", N).extend("v", vec(Var(0))),
     Var(0), vec(s(Var(1)))),
    (check_context, ref.check_context, VEC,
     EMPTY.extend("x", Z).extend("x", N).extend("y", Cons("ghost"))),
    (check_signature, ref.check_signature,
     Theory(VEC.signature + (Declaration("w", (("x", Z),), N),), VEC.rules)),
]


@pytest.mark.parametrize("trap", TRAPS, ids=lambda t: f"{t[0].__name__}-{t[-1]!r}"[:60])
def test_error_traps(trap):
    new, old, *args = trap
    same(new, old, *args, equal_ticks=True)


# --- memo safety -------------------------------------------------------------


def test_shared_subterm_is_typed_in_each_context():
    # one object, under binders whose annotations differ: x : N makes it
    # well typed, x : Vec(z) does not
    succ_x = s(Var(0))
    term = Cons("plus", (App(Lam("x", N, succ_x), Z),
                         App(Lam("x", vec(Z), succ_x), Cons("nil"))))
    with pytest.raises(TypeMismatch) as e:
        infer(VEC, EMPTY, term)
    assert "argument 2 of 'plus' > function position > body of 'x' > argument 1 of 's'" \
        in e.value.message
    same(infer, ref.kernel_infer, VEC, EMPTY, term, equal_ticks=True)
    # an object well typed in both contexts has a different type in each:
    # a careless memo gives the third argument of cons the type N
    of_x = App(Lam("w", N, Var(1)), Z)
    term = Cons("cons", (App(Lam("x", N, of_x), Z), Z,
                         App(Lam("x", vec(Z), of_x), Cons("nil"))))
    assert infer(VEC, EMPTY, term) == vec(s(App(Lam("x", N, of_x), Z)))
    same(infer, ref.kernel_infer, VEC, EMPTY, term, equal_ticks=True)


@pytest.mark.parametrize("outer_first", (True, False))
def test_a_ground_term_replays_its_log_under_each_context(outer_first):
    """``s(s(z))`` is one object, typed once per call, at two depths; the
    log shows each occurrence with the names of its own context."""
    two = s(s(Z))
    inner = App(Lam("x", N, plus(two, Var(0))), Z)
    term = plus(two, inner) if outer_first else plus(inner, two)
    log = []
    infer(VEC, EMPTY, term, None, log)
    assert sum(t is two for _, t, _ in log) == 2
    assert {tuple(names) for names, t, _ in log if t is two} == {(), ("x",)}
    old = []
    ref.kernel_infer(VEC, EMPTY, term, None, old)
    assert repr(log) == repr(old)
    same(infer, ref.kernel_infer, VEC, EMPTY, term)


def deep_judgment(n: int):
    """The image of ``lam C : Type. lam x1 : C. ... lam xn : C. x1`` in
    finite System F, with its context and expected type."""
    case = next(c for c in CASES if c.label == "systemf/finite")
    enc = generate(case.spec)
    t = PVar(n - 1)
    for i in range(n, 0, -1):
        t = PLam(f"x{i}", PVar(i - 1), t)
    ctx = EptsContext()
    m = elaborate(enc.spec, ctx, PLam("C", PSort("Type"), t))
    a = epts_infer(enc.spec, ctx, m)
    return enc, ctx, m, a


def check_ticks(enc, dctx, img, want) -> int:
    """The ticks of one kernel check of ``img`` against ``want``."""
    f = Fuel()
    check(enc.theory, dctx, img, want, f)
    return f.limit - f.remaining


def image_judgment(n: int):
    """:func:`deep_judgment` as (encoding, image context, image, expected type)."""
    enc, ctx, m, a = deep_judgment(n)
    return enc, translate_ctx(enc, ctx), translate(enc, m), expected_dk_type(enc, ctx, a)


def test_no_memo_outlives_its_call():
    judgment = image_judgment(12)
    first = check_ticks(*judgment)
    assert check_ticks(*judgment) == first
    del judgment
    gc.collect()
    judgment = image_judgment(12)
    assert check_ticks(*judgment) == first
    # the shared image is cheaper than the tree the old kernel walks
    f = Fuel()
    enc, *args = judgment
    ref.kernel_check(enc.theory, *args, f)
    assert first < f.limit - f.remaining
    # and inverting one image twice spends the same
    enc, ctx, m, a = deep_judgment(12)
    img = translate(enc, m)
    ticks = []
    for _ in range(2):
        f = Fuel()
        conservative_invert(enc, ctx, img, a, f)
        ticks.append(f.limit - f.remaining)
    assert ticks[0] == ticks[1]


def trace_lines(log) -> list[str]:
    """The log as ``check-dk --trace`` prints it."""
    out = []
    for names, t, ty in log:
        shown = fresh_names(names)
        out.append(f"{render(t, shown)} : {render(ty, shown)}")
    return out


def test_a_memo_hit_replays_the_trace(tmp_path, capsys):
    enc, ctx, m, a = deep_judgment(6)
    img, want = translate(enc, m), expected_dk_type(enc, ctx, a)
    dctx = translate_ctx(enc, ctx)
    shared, f_shared = [], Fuel()
    check(enc.theory, dctx, img, want, f_shared, shared)
    old, f_old = [], Fuel()
    ref.kernel_check(enc.theory, dctx, img, want, f_old, old)
    assert f_shared.remaining > f_old.remaining   # the memo did hit
    assert repr(shared) == repr(old)
    # check-dk reads the same judgment back from text, sharing nothing,
    # and prints the same trace
    path = tmp_path / "deep.dk"
    path.write_text(render_theory(enc.theory, dctx, [(img, want)]))
    assert main(["check-dk", str(path), "--trace"]) == 0
    printed = [line.strip() for line in capsys.readouterr().err.splitlines()]
    assert printed[-len(shared):] == trace_lines(shared)


# --- matching paths the corpus never takes -----------------------------------
#
# Each theory makes the machine take one path of ``Machine._match`` that
# no generated theory takes: a repeated pattern variable, a pattern that
# is neither a variable nor a constant, and a position an earlier rule
# left evaluated.  ``validate_theory`` rejects the first two kinds of
# rule, but ``check-dk`` still runs ``check_signature`` on such a theory.
# Each case is the theory's text, rules the text cannot write, terms to
# weak-head normalize and pairs to convert; ``v1`` and ``v0`` name free
# variables.

MATCHING = {
    "non-linear": (
        "constant T : TYPE.\nconstant a : T.\nconstant b : T.\nconstant N : TYPE.\n"
        "constant eq (x : T, y : T) : TYPE.\n"
        'rule "refl" eq(x, x) --> N.\n'
        "constant P (m : N) : TYPE.\n"
        "constant p : eq(a, a).\nconstant q : eq(a, b).\n"
        "constant ok : P(p).\nconstant bad : P(q).\n",
        (), ["eq(a, a)", "eq(a, b)"], [("eq(a, a)", "N"), ("eq(b, a)", "N")]),
    "re-match": (
        "constant N : TYPE.\nconstant z : N.\nconstant s (n : N) : N.\n"
        "constant a : N.\nconstant b : N.\nconstant f (m : N, n : N) : N.\n"
        'rule "fz" f(s(x), z) --> x.\nrule "fs" f(s(x), s(y)) --> y.\n'
        "constant P (n : N) : TYPE.\nconstant pb : P(b).\n"
        "check pb : P(f(s(a), s(b))).\ncheck pb : P(f(s(a), z)).\n",
        (), ["f(s(a), s(b))", "f(s(a), z)", "f(z, s(b))"],
        [("f(s(a), s(b))", "b"), ("f(s(a), s(b))", "f(s(b), s(b))")]),
    "application pattern": (
        "constant A : TYPE.\nconstant c : A.\nconstant k (x : A) : A.\n"
        "constant g (x : A) : A.\n"
        'rule "app" g(y z) --> c.\nrule "var" g(k(x)) --> x.\n'
        "assume f : A -> A.\ncheck c : A.\n",
        (), ["g(f c)", "g(k(c))", "g((lam x : A. x) c)"],
        [("g(f c)", "c"), ("g(k(f c))", "f c")]),
}


def matching_case(name: str):
    """The theory of case ``name`` and its parsed file."""
    text, rules, _, _ = MATCHING[name]
    tf = parse_theory(text)
    return Theory(tf.theory.signature, tf.theory.rules + rules), tf


def same_outcome(new, old, *args):
    """``new(*args, fuel)`` and ``old(*args, fuel)`` return the same term or
    raise the same failure, and spend the same ticks."""
    def outcome(fn):
        f = Fuel()
        try:
            out = repr(fn(*args, f))
        except (PimodError, FuelExhausted) as e:
            out = f"{type(e).__name__}: {e}"
        return out, f.limit - f.remaining
    assert outcome(new) == outcome(old)


@pytest.mark.parametrize("name", MATCHING)
def test_matching_paths_agree_with_the_term_kernel(name):
    theory, tf = matching_case(name)
    _, _, whnfs, convs = MATCHING[name]
    parse = lambda text: parse_dk_term(text, theory, tf.assumes.names + ["v1", "v0"])
    same(check_signature, ref.check_signature, theory, equal_ticks=True)
    same(check_context, ref.check_context, theory, tf.assumes, equal_ticks=True)
    for m, a in tf.checks:
        same(check, ref.kernel_check, theory, tf.assumes, m, a, equal_ticks=True)
    for text in whnfs:
        same_outcome(whnf, ref.whnf, theory, parse(text))
    for a, b in convs:
        same_outcome(convertible, ref.convertible, theory, parse(a), parse(b))


def test_matching_paths_are_taken():
    """The verdicts the comparisons above rest on, so that they compare
    the paths they name and not two failures alike."""
    theory, _ = matching_case("non-linear")
    assert [d.subject for d in check_signature(theory)] == ["bad"]
    theory, _ = matching_case("re-match")
    assert whnf(theory, parse_dk_term("f(s(a), s(b))", theory)) == Cons("b")
    theory, _ = matching_case("application pattern")
    stuck = parse_dk_term("g(f c)", theory, ["f"])
    assert whnf(theory, stuck) == stuck
