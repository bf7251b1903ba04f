"""One step budget per operation: every layer, the kernel included, draws
on the ``Fuel`` its caller hands it and builds no budget of its own.  On
the command line, ``--trace`` replays a reduction on the item's own
budget, so ``--fuel`` bounds the traced item as well."""

from pathlib import Path

import pytest

import pimod.corpus
import reference
from pimod.cli import main
from pimod.corpus import load_cases, load_sorts
from pimod.decode import adequacy_legs, conservative_invert
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import EptsContext, elaborate, elaborate_context
from pimod.errors import FuelExhausted
from pimod.kernel import check, check_context, check_signature, infer
from pimod.morphism import build_phi, verify_morphism
from pimod.rewrite import BETA, DEFAULT_FUEL, Fuel, reduce_trace
from pimod.syntax import fresh_names, parse_dk_term, parse_pts_term, render
from pimod.terms import App, Cons, Lam, Var
from systems import load_case

CORPUS_DIR = Path(pimod.corpus.__file__).parent
SYSTEMF_SORTS = str(CORPUS_DIR / "systemf.sorts")
SYSTEMF_EPTS = str(CORPUS_DIR / "systemf.epts")


def _judgments(case):
    """(encoding, context, name, term, type) for each judgment of a case."""
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    for j in case.file.judgments:
        yield (enc, ctx, j.name, elaborate(case.spec, ctx, j.term),
               elaborate(case.spec, ctx, j.type))


def _calls():
    case = load_case("systemf", "finite")
    enc, ctx, _, m, a = next(j for j in _judgments(case) if j[2] == "two_plus_one")
    dctx, img = translate_ctx(enc, ctx), translate(enc, m)
    want = expected_dk_type(enc, ctx, a)
    sf = load_sorts("systemf")
    phi = build_phi(generate(sf.finite), generate(sf.internalized))
    return {
        "infer": lambda f: infer(enc.theory, dctx, img, f),
        "check": lambda f: check(enc.theory, dctx, img, want, f),
        "check_context": lambda f: check_context(enc.theory, dctx, f),
        "check_signature": lambda f: check_signature(enc.theory, f),
        "conservative_invert": lambda f: conservative_invert(enc, ctx, img, a, f),
        "adequacy_legs": lambda f: adequacy_legs(enc, ctx, m, f),
        "verify_morphism": lambda f: verify_morphism(phi, f),
    }


def _internalized_calls():
    """Inversion and the adequacy legs over internalized System F, each on
    an encoding of its own, generated from a freshly loaded spec, so the
    spec's table holds only what setting the call up asked.  The last
    inverts a product whose sort argument is the unevaluated
    ``Ru(type, type)``, which only normalizing names."""
    case = load_case("systemf", "internalized")
    ctx = elaborate_context(case.spec, case.file.assumes)
    j = next(j for j in case.file.judgments if j.name == "two_plus_one")
    m, a = elaborate(case.spec, ctx, j.term), elaborate(case.spec, ctx, j.type)
    tt = Cons("Ru", (Cons("type"), Cons("type")))
    prod = Cons("Prod", (tt, Cons("type"), Var(0), Lam("x", Cons("El", (tt, Var(0))), Var(1))))
    c = EptsContext().extend("C", Cons("Type"))
    encs = [generate(load_sorts("systemf").internalized) for _ in range(3)]
    img = translate(encs[0], m)
    return {
        "internalized/conservative_invert":
            lambda f: conservative_invert(encs[0], ctx, img, a, f),
        "internalized/adequacy_legs": lambda f: adequacy_legs(encs[1], ctx, m, f),
        "internalized/unevaluated_sort":
            lambda f: conservative_invert(encs[2], c, prod, Cons("Type"), f),
    }


CALLS = {**_calls(), **_internalized_calls()}


@pytest.mark.parametrize("name", CALLS)
def test_no_layer_builds_a_budget_of_its_own(name, monkeypatch):
    f = Fuel(DEFAULT_FUEL)
    built = []
    init = Fuel.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fuel, "__init__", spy)
    CALLS[name](f)
    assert built == []
    assert f.remaining < f.limit or not name.startswith("internalized")


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: c.label)
def test_the_budget_bounds_inversion_exactly(case):
    """T ticks of a full budget are enough, and T - 1 run out with
    ``FuelExhausted``, never with a soundness error."""
    for enc, ctx, name, m, a in _judgments(case):
        img = translate(enc, m)
        wrapped = App(Lam("w", infer(enc.theory, translate_ctx(enc, ctx), img), Var(0)), img)
        for t in (img, wrapped):
            full = Fuel(DEFAULT_FUEL)
            assert conservative_invert(enc, ctx, t, a, full) == m, name
            ticks = full.limit - full.remaining
            exact = Fuel(ticks)
            assert conservative_invert(enc, ctx, t, a, exact) == m, name
            assert exact.remaining == 0, name
            if ticks > 1:  # a budget is positive: nothing lies below Fuel(1)
                with pytest.raises(FuelExhausted):
                    conservative_invert(enc, ctx, t, a, Fuel(ticks - 1))


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: c.label)
def test_inversion_spends_the_same_ticks_each_time_and_no_more_than_the_tree_walk(case):
    """Two consecutive calls spend the same ticks, and never more than the
    pipeline in ``reference`` whose stages after the kernel check walk the
    shared image as a tree."""
    for enc, ctx, name, m, a in _judgments(case):
        img = translate(enc, m)
        spent = []
        for invert_ in (conservative_invert, conservative_invert, reference.conservative_invert):
            f = Fuel(DEFAULT_FUEL)
            assert invert_(enc, ctx, img, a, f) == m, name
            spent.append(f.limit - f.remaining)
        first, second, tree = spent
        assert first == second <= tree, name


def _spent(f: Fuel) -> int:
    return f.limit - f.remaining


def _budget_bounds_the_trace(argv, untraced, traced, capsys):
    """``argv`` passes untraced at ``untraced`` ticks and traced at ``traced``,
    and fails traced below either."""
    for fuel, trace, code in ((untraced, False, 0), (traced, True, 0),
                              (untraced - 1, True, 1), (traced - 1, True, int(traced > untraced))):
        assert main(argv + ["--fuel", str(fuel)] + ["--trace"] * trace) == code, (fuel, trace)
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["finite", "internalized"])
def test_roundtrip_trace_replays_on_the_items_budget(mode, capsys):
    """Each judgment is one item: its legs and its traced simulation draw on
    one ``--fuel``.  The run needs the largest item's ticks."""
    case = load_case("systemf", mode)
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    untraced, traced = [], []
    for j in case.file.judgments:
        f = Fuel(DEFAULT_FUEL)
        m = elaborate(case.spec, ctx, j.term, f)
        adequacy_legs(enc, ctx, m, f)
        untraced.append(_spent(f))
        reduce_trace(enc.theory, translate(enc, m), enc.simulation_labels(), f)
        traced.append(_spent(f))
    assert max(traced) > max(untraced)
    _budget_bounds_the_trace(["roundtrip", SYSTEMF_SORTS, SYSTEMF_EPTS, "--mode", mode],
                             max(untraced), max(traced), capsys)


@pytest.mark.parametrize("mode", ["finite", "internalized"])
def test_decode_trace_replays_on_the_items_budget(mode, capsys):
    """``decode --term`` of each judgment's image under a beta-redex: the
    type's elaboration, the inversion and the traced beta-normalization
    draw on one ``--fuel``."""
    case = load_case("systemf", mode)
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    names, defs = list(ctx.names), dict(case.file.definitions)
    shown = fresh_names(names)
    for j in case.file.judgments:
        img = translate(enc, elaborate(case.spec, ctx, j.term))
        term = render(App(Lam("w", infer(enc.theory, translate_ctx(enc, ctx), img), Var(0)), img),
                      shown)
        type_ = render(j.type, shown)
        f = Fuel(DEFAULT_FUEL)
        t = parse_dk_term(term, enc.theory, names)
        a = elaborate(case.spec, ctx, parse_pts_term(type_, case.spec, names, defs), f)
        conservative_invert(enc, ctx, t, a, f)
        untraced = _spent(f)
        reduce_trace(enc.theory, t, frozenset({BETA}), f)
        _budget_bounds_the_trace(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--mode", mode,
                                  "--term", term, "--type", type_],
                                 untraced, _spent(f), capsys)


def test_the_trace_of_a_redex_fits_the_items_budget(tmp_path, capsys):
    """The item spends 7 ticks on its legs and 2 on the traced simulation."""
    src = tmp_path / "r.epts"
    src.write_text("assume C : Type.\nassume c : C.\ndef r : C := (lam x : C. x) c.\n")
    argv = ["roundtrip", SYSTEMF_SORTS, str(src), "--mode", "finite", "--fuel"]
    assert main(argv + ["7"]) == 0
    capsys.readouterr()
    assert main(argv + ["7", "--trace"]) == 1
    out, err = capsys.readouterr()
    assert "FuelExhausted" in out and "-->" not in err
    assert main(argv + ["9", "--trace"]) == 0
    assert [line.strip() for line in capsys.readouterr().err.splitlines()] == [
        "--beta@Type@Type--> (lam x : El@Type(C). x) c", "--β--> c"]
