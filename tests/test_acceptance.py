"""The acceptance gate: one test per shipped guarantee, run on the corpus.

Every test below re-derives its data from the public API over the bundled
example systems (System F, a CoC fragment, Type-in-Type, MLTT universes),
in both encoding modes where the sort file provides them.  Criteria that
quantify over "all corpus judgments" iterate the full set; the helpers
return how many items they actually exercised so a silent empty loop can
never pass.
"""

import random
import time

from pimod.analysis import (check_arity_preserving, check_rules_well_formed,
                            erase_context, erase_signature, erase_term,
                            erase_type, pi_context, stlc_check)
from pimod.corpus import load_cases, read_text
from pimod.decode import conservative_invert, invert
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import elaborate, elaborate_context, epts_redex
from pimod.kernel import check as dk_check, infer as dk_infer
from pimod.morphism import apply_morphism, build_phi, verify_morphism
from pimod.rewrite import BETA, convertible, reduce_trace, step
from pimod.syntax import parse_theory
from pimod.terms import DkContext, subst
from systems import reducts
from termgen import GEN_THEORY, beta_expand, gen_judgment, gen_term
from test_analysis import s_reaches


def _prepare():
    out = []
    for case in load_cases():
        enc = generate(case.spec)
        ctx = elaborate_context(case.spec, case.file.assumes)
        js = [(j.name, elaborate(case.spec, ctx, j.term),
               elaborate(case.spec, ctx, j.type))
              for j in case.file.judgments]
        out.append((case, enc, ctx, js))
    return out


PREPARED = _prepare()
TYPETYPE = [p for p in PREPARED if p[0].corpus == "typetype"]


# --- criteria 1-4, shared with the Type-in-Type rerun ------------------------


def _soundness(prepared):
    """Every judgment's image kernel-checks at its expected type, each < 1s."""
    n = 0
    for case, enc, ctx, js in prepared:
        dctx = translate_ctx(enc, ctx)
        for name, m, a in js:
            started = time.perf_counter()
            dk_check(enc.theory, dctx, translate(enc, m),
                     expected_dk_type(enc, ctx, a))
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, f"{case.label}/{name}: {elapsed:.2f}s"
            n += 1
    return n


def _left_inverse(prepared):
    """Inversion undoes translation up to nothing at all: exact equality."""
    n = 0
    for case, enc, ctx, js in prepared:
        for name, m, a in js:
            assert invert(enc, translate(enc, m)) == m, f"{case.label}/{name}"
            assert invert(enc, translate(enc, a)) == a, f"{case.label}/{name}"
            n += 1
    return n


def _conservativity(prepared, variants=5, seed=2027):
    """Beta-expanded images still come back, bit for bit, to the source."""
    rng = random.Random(seed)
    terms = 0
    for case, enc, ctx, js in prepared:
        dctx = translate_ctx(enc, ctx)
        for name, m, a in js:
            img = translate(enc, m)
            for k in range(variants):
                fat = beta_expand(rng, enc.theory, dctx, img, wraps=1 + k % 2)
                assert fat != img
                got = conservative_invert(enc, ctx, fat, a)
                assert got == m, f"{case.label}/{name} variant {k}"
            terms += 1
    return terms


def _computation(prepared):
    """Each source step shows up as exactly [beta rule, framework beta],
    landing on the image of the stepped source term; inverting any
    intermediate image replays the source reduction."""
    redexes = 0
    for case, enc, ctx, js in prepared:
        for name, m, a in js:
            img = translate(enc, m)
            nf_img, trail = reduce_trace(enc.theory, img,
                                         enc.simulation_labels())
            src = []
            cur = m
            while (r := epts_redex(enc.spec, cur)) is not None:
                cur, sorts = r
                src.append((sorts, cur))
            assert len(trail) == 2 * len(src), f"{case.label}/{name}"
            for i, (sorts, mi) in enumerate(src):
                lab_rule, _ = trail[2 * i]
                lab_beta, landed = trail[2 * i + 1]
                assert lab_rule == enc.beta_label(*sorts)
                assert lab_beta == BETA
                assert landed == translate(enc, mi)
                assert invert(enc, landed) == mi
                redexes += 1
            assert nf_img == translate(enc, cur)
    return redexes


# --- the gate ----------------------------------------------------------------


def test_criterion_1_translation_soundness():
    assert _soundness(PREPARED) >= 30


def test_criterion_2_exact_left_inverse():
    assert _left_inverse(PREPARED) >= 30


def test_criterion_3_conservative_inversion_of_beta_expansions():
    assert _conservativity(PREPARED) >= 30


def test_criterion_4_computation_is_mirrored_step_for_step():
    assert _computation(PREPARED) > 0


def test_criterion_5_arity_analyzer_verdicts():
    for case, enc, ctx, js in PREPARED:
        assert check_rules_well_formed(enc.theory) == [], case.label
        assert check_arity_preserving(enc.theory) == [], case.label
    bad = parse_theory(read_text("bad_traditional.dk"),
                       source="bad_traditional.dk")
    diags = [d for d in check_arity_preserving(bad.theory)
             if d.code == "arity-violation"]
    assert len(diags) == 1
    assert diags[0].data["lhs_erasure"] == "*"
    assert diags[0].data["rhs_erasure"] == "* -> *"
    assert "head erasure changes from * to * -> *" in diags[0].message


def test_criterion_6_beta_termination_witness_by_erasure():
    checked = 0
    for case, enc, ctx, js in PREPARED:
        theory = enc.theory
        sig = erase_signature(theory)
        ectx = erase_context(theory, translate_ctx(enc, ctx))
        for name, m, a in js:
            img = translate(enc, m)
            pis = set()
            erased = erase_term(theory, img, pis)
            sigma = erase_type(theory, expected_dk_type(enc, ctx, a))
            consts = {**sig, **pi_context(pis)}
            assert stlc_check(consts, ectx, erased, sigma), \
                f"{case.label}/{name}"
            checked += 1
            # every framework beta step reachable while running the image
            # strictly advances the erased term
            _, trail = reduce_trace(theory, img, enc.simulation_labels())
            for u in [img] + [t for _, t in trail]:
                eu = erase_term(theory, u)
                for _, label, v in reducts(theory, u):
                    if label != BETA:
                        continue
                    ev = erase_term(theory, v)
                    assert eu != ev, f"{case.label}/{name}"
                    assert s_reaches(eu, ev), f"{case.label}/{name}"
    assert checked >= 30


def test_criterion_7_pipeline_survives_type_in_type():
    assert len(TYPETYPE) == 1
    assert _soundness(TYPETYPE) >= 5
    assert _left_inverse(TYPETYPE) >= 5
    assert _conservativity(TYPETYPE, seed=2028) >= 5
    assert _computation(TYPETYPE) > 0


def test_criterion_8_finite_to_internalized_interpretation():
    for corpus in ("systemf", "mltt"):
        fin = next(p for p in PREPARED
                   if p[0].corpus == corpus and p[0].mode == "finite")
        itl = next(p for p in PREPARED
                   if p[0].corpus == corpus and p[0].mode == "internalized")
        phi = build_phi(fin[1], itl[1])
        assert verify_morphism(phi) == [], corpus
        assert [n for n, _, _ in fin[3]] == [n for n, _, _ in itl[3]]
        for (name, m, a), (_, m2, a2) in zip(fin[3], itl[3]):
            assert (m, a) == (m2, a2), f"{corpus}/{name}"
            for t in (m, a):
                assert apply_morphism(phi, translate(fin[1], t)) == \
                    translate(itl[1], t), f"{corpus}/{name}"


def test_criterion_9_metatheory_on_generated_terms():
    started = time.perf_counter()
    rng = random.Random(90210)
    unique_types = substitution = subject_reduction = 0
    while min(unique_types, substitution, subject_reduction) < 100:
        ctx, t, ty = gen_judgment(rng, depth=6)

        # uniqueness of types: the generator's derivation and the kernel's
        # inference may differ as derivations but must agree up to conversion
        assert convertible(GEN_THEORY, dk_infer(GEN_THEORY, ctx, t), ty)
        unique_types += 1

        # substituting a well-typed term for the newest assumption keeps
        # the judgment derivable
        if ctx.entries:
            rest = DkContext(ctx.entries[:-1])
            u = gen_term(rng, rest, ctx.entries[-1][1], 3)
            dk_check(GEN_THEORY, rest, subst(t, 0, u), subst(ty, 0, u))
            substitution += 1

        # one framework beta step never changes the type
        fat = beta_expand(rng, GEN_THEORY, ctx, t, wraps=1)
        stepped = step(GEN_THEORY, fat, labels={BETA})
        assert stepped is not None
        dk_check(GEN_THEORY, ctx, stepped[0], ty)
        subject_reduction += 1

    assert time.perf_counter() - started < 60.0
