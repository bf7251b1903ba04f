"""The interned translation against the one it replaced.

``reference.translate_sharing_source`` shares an image node only where
elaboration shares the source node; ``translate`` builds one object per
distinct subterm.  On the same source term both must give equal images
that print alike, binder hints included, and the new image must have as
many node objects as structural classes.  What reads the image must not
tell them apart: the kernel logs the same inferences and fails alike, on
at most the old ticks, and ``conservative_invert`` recovers the same term
or fails alike, on at most the old ticks, from the image and from its
normal form, which keeps the image's sharing where no step touched it.
On sums of Church numerals, whose images repeat the same type codes at
every application, the kernel spends strictly fewer ticks.
"""

import pytest
from hypothesis import given

import reference as ref
from pimod.corpus import load_cases
from pimod.decode import conservative_invert
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import elaborate, elaborate_context
from pimod.kernel import check, infer
from pimod.rewrite import nf
from pimod.syntax import fresh_names, parse_pts_term, render
from strategies import epts_terms
from systems import load_case
from test_decode import ENCODINGS
from test_inversion_oracle import CTX, distinct_nodes, run
from test_scripts import structural_classes


def images_agree(enc, ctx, m):
    """The new and the old image of ``m``, after checking that they agree."""
    new, old = translate(enc, m), ref.translate_sharing_source(enc, m)
    shown = fresh_names(ctx.names)
    assert new == old and repr(new) == repr(old) and render(new, shown) == render(old, shown)
    assert distinct_nodes(new) == structural_classes(new) <= distinct_nodes(old)
    return new, old


def logged(kernel_call, *args):
    """``kernel_call(*args, fuel, log)`` through ``run``, with the log."""
    log = []
    out = run(lambda *a: kernel_call(*a, log), *args)
    return out, repr(log)


def readers_agree(enc, ctx, m, a):
    """The kernel and ``conservative_invert`` on the two images of ``m : a``;
    the kernel's ticks on the new and the old image."""
    new, old = images_agree(enc, ctx, m)
    dctx, want = translate_ctx(enc, ctx), expected_dk_type(enc, ctx, a)
    for t in [want] + [ty for _, ty in dctx.entries]:
        assert distinct_nodes(t) == structural_classes(t)
    (got, got_log), (was, was_log) = (logged(check, enc.theory, dctx, img, want)
                                      for img in (new, old))
    assert got[:2] == was[:2] and got_log == was_log and got[2] <= was[2]
    labels = enc.simulation_labels()
    for new_t, old_t in ((new, old), (nf(enc.theory, new, labels), nf(enc.theory, old, labels))):
        got_inv, was_inv = (run(conservative_invert, enc, ctx, t, a) for t in (new_t, old_t))
        assert got_inv[:2] == was_inv[:2] and got_inv[2] <= was_inv[2]
    return got[2], was[2]


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: c.label)
def test_corpus_images(case):
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    for j in case.file.judgments:
        readers_agree(enc, ctx, elaborate(case.spec, ctx, j.term),
                      elaborate(case.spec, ctx, j.type))


@ENCODINGS
@given(m=epts_terms())
def test_raw_terms(enc, m):
    """Mostly ill-typed: the kernel's first failure and its log agree."""
    new, old = images_agree(enc, CTX, m)
    dctx = translate_ctx(enc, CTX)
    (got, got_log), (was, was_log) = (logged(infer, enc.theory, dctx, img) for img in (new, old))
    assert got[:2] == was[:2] and got_log == was_log and got[2] <= was[2]


def numeral(n: int) -> str:
    body = "x"
    for _ in range(n):
        body = f"f ({body})"
    return f"(lam A : Type. lam f : A -> A. lam x : A. {body})"


SUMS = [(2, 3), (1, 0, 4), (3, 1, 2, 2)]


@pytest.mark.parametrize("mode", ["finite", "internalized"])
def test_church_sums(mode):
    """``add n1 (add n2 (... nk))`` over the System F corpus: the image
    repeats the type codes of ``nat`` at every ``add``."""
    case = load_case("systemf", mode)
    enc = generate(case.spec)
    ctx = elaborate_context(case.spec, case.file.assumes)
    names, defs = list(ctx.names), dict(case.file.definitions)
    for ns in SUMS:
        text = numeral(ns[-1])
        for n in reversed(ns[:-1]):
            text = f"add {numeral(n)} ({text})"
        m = elaborate(case.spec, ctx, parse_pts_term(text, case.spec, names, defs))
        a = elaborate(case.spec, ctx, parse_pts_term("nat", case.spec, names, defs))
        got, was = readers_agree(enc, ctx, m, a)
        assert got < was, ns
