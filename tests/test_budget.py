"""One step budget per operation: every layer, the kernel included, draws
on the ``Fuel`` its caller hands it and builds no budget of its own."""

import pytest

import reference
from pimod.corpus import load_case, load_cases, load_sorts
from pimod.decode import adequacy_legs, conservative_invert
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import elaborate, elaborate_context
from pimod.errors import FuelExhausted
from pimod.kernel import check, check_context, check_signature, infer
from pimod.morphism import build_phi, verify_morphism
from pimod.rewrite import DEFAULT_FUEL, Fuel
from pimod.terms import App, Lam, Var


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


CALLS = _calls()


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
