"""Reading framework terms back into explicitly annotated PTS syntax.

``translate`` writes five productions through ``EncodingTheory.family``:
a variable, a universe code ``u``, and a ``Prod``, ``abs`` or ``app``
family member.  ``invert`` reads the same five back through ``split``
into three annotated nodes over framework leaves, returning each
variable itself, and is an exact left inverse on them.
``conservative_invert`` extends this to any well-typed inhabitant of an
encoded type by beta-normalizing first; the intermediate soundness facts
this relies on are asserted along the way and raise
:class:`InternalSoundnessError` subclasses when violated, because a
failure there is a bug in the toolkit rather than bad input.
"""

from __future__ import annotations

from .errors import (
    Diagnostic,
    EptsCheckFailed,
    InternalSoundnessError,
    NotInvertible,
    PimodError,
)
from .kernel import check as dk_check
from .rewrite import BETA, Fuel, convertible, nf, step
from .terms import Cons, DkTerm, Lam, NodeMemo, Var
from .epts import (
    EApp,
    ELam,
    EPi,
    EptsContext,
    EptsTerm,
    epts_check,
    epts_infer,
    epts_redex,
)
from .encode import EncodingTheory, expected_dk_type, translate, translate_ctx


def invert(enc: EncodingTheory, t: DkTerm, fuel: int | Fuel | None = None) -> EptsTerm:
    """Translate back, discarding binder annotations.

    Reads the productions :func:`translate` writes, through
    :meth:`EncodingTheory.split`: a variable (returned itself), a
    universe code ``u``, and ``Prod``, ``abs`` and ``app`` whose binder
    annotations are dropped.
    On images it is the exact inverse.  Anything else, a beta redex
    included, raises :class:`NotInvertible`; :func:`conservative_invert`
    beta-normalizes first.

    Each node object is inverted once per call, so the result shares
    what ``t`` shares: it has no more distinct node objects than ``t``,
    and :func:`translate` maps it back in time linear in them.  A sort
    argument that is no named sort term is normalized on ``fuel``.
    """
    fuel = Fuel.of(fuel)
    memo = NodeMemo()

    def back(u: DkTerm) -> EptsTerm:
        m = memo.get(id(u))
        if m is not None:
            return m
        match u:
            case Var():
                m = u
            case Cons(name, args):
                match enc.split(name, args, fuel):
                    case "u", (s,), ():
                        m = Cons(s)
                    case "Prod", (s1, s2), (a, Lam(h, _, b)):
                        m = EPi(s1, s2, back(a), h, back(b))
                    case "abs", (s1, s2), (a, Lam(h, _, b), Lam(_, _, n)):
                        m = ELam(s1, s2, back(a), h, back(b), back(n))
                    case "app", (s1, s2), (a, Lam(h, _, b), f, n):
                        m = EApp(s1, s2, back(a), h, back(b), back(f), back(n))
                    case _:
                        raise NotInvertible("term is outside the invertible fragment", term=u)
            case _:
                raise NotInvertible("term is outside the invertible fragment", term=u)
        return memo.put(id(u), m, u)

    return back(t)


def hidden_equiv(enc: EncodingTheory, a: DkTerm, b: DkTerm,
                 fuel: int | Fuel | None = None) -> bool:
    """Equality up to conversion inside abstraction annotations only, and
    up to evaluation of the sort arguments of family members.

    The plain skeletons must agree on the nose; the collected pairs of
    binder annotations merely have to be convertible, and two family
    members need only the same role and the same sort names, which
    :meth:`EncodingTheory.split` reads off the sort arguments, normalizing
    on ``fuel`` those that are no named sort term.
    This is the precise sense in which annotations and sort arguments are
    hidden: rewriting can change them, but it cannot change what the term
    says.

    Each pair of node objects is zipped once and each pair of annotation
    objects converted once, however often the terms repeat them.
    """
    f = Fuel.of(fuel)
    pairs = NodeMemo()    # annotation pairs, in order of first meeting
    zipped = NodeMemo()   # pairs of subterms of a and b that agree

    def zip_(x: DkTerm, y: DkTerm) -> bool:
        key = (id(x), id(y))
        if key in zipped:
            return True
        if type(x) is Lam and type(y) is Lam:
            anns = (id(x.ann), id(y.ann))
            if anns not in pairs:
                pairs.put(anns, (x.ann, y.ann), (x.ann, y.ann))
            kids = [(x.body, y.body)]
        else:
            sx = sy = None
            if type(x) is Cons and type(y) is Cons:
                sx, sy = enc.split(x.name, x.args, f), enc.split(y.name, y.args, f)
            if sx is not None and sy is not None:
                if sx[:2] != sy[:2] or len(sx[2]) != len(sy[2]):
                    return False
                kids = zip(sx[2], sy[2])
            elif not x.same_node(y):
                return x == y
            else:
                kids = [(p, q) for (p, _), (q, _) in zip(x.children(), y.children())]
        for p, q in kids:
            if not zip_(p, q):
                return False
        zipped.put(key, True, (x, y))
        return True

    if not zip_(a, b):
        return False
    return all(convertible(enc.theory, p, q, f) for p, q in pairs.values())


def conservative_invert(enc: EncodingTheory, ctx: EptsContext, t: DkTerm,
                        a: EptsTerm, fuel: int | Fuel | None = None) -> EptsTerm:
    """Recover a source term from any framework inhabitant of an encoded type.

    ``t`` is first checked against the image of ``a`` over the image of
    ``ctx`` (failures here are ordinary user errors), then beta-normalized
    and inverted.  Everything after the kernel check is guaranteed by the
    encoding's metatheory, so any failure past that point raises an
    :class:`InternalSoundnessError`.  Every step, the kernel's included,
    draws on the one budget ``fuel``; running out raises
    :class:`FuelExhausted`, which is never a soundness verdict.
    """
    f = Fuel.of(fuel)
    dctx = translate_ctx(enc, ctx, f)
    want = expected_dk_type(enc, ctx, a, f)
    dk_check(enc.theory, dctx, t, want, f)
    normal = nf(enc.theory, t, labels={BETA}, fuel=f)
    m = invert(enc, normal, f)

    try:
        epts_check(enc.spec, ctx, m, a, f)
    except PimodError as e:
        raise EptsCheckFailed(
            "the recovered source term fails to type-check",
            term=m, reason=str(e)) from e

    if not hidden_equiv(enc, translate(enc, m), normal, f):
        raise InternalSoundnessError(
            "re-translating the recovered term changes more than binder "
            "annotations", term=m)
    return m


def adequacy_legs(enc: EncodingTheory, ctx: EptsContext, m: EptsTerm,
                  fuel: int | Fuel | None = None) -> list[tuple[str, Diagnostic | None]]:
    """Check the adequacy properties of the encoding on one judgment.

    Returns the legs that apply to ``m``, in order, each as its
    diagnostic code with the failure or None.  The image is well-typed
    at the expected framework type; inversion recovers ``m`` on the
    nose; then either a normal ``m`` has a normal image (w.r.t. the
    simulation labels), or a reducible ``m`` is simulated by exactly one
    encoded-beta step followed by one framework-beta step, landing on
    the image of the reduct.
    """
    f = Fuel.of(fuel)
    a = epts_infer(enc.spec, ctx, m, f)
    img = translate(enc, m)
    legs: list[tuple[str, Diagnostic | None]] = [
        ("image-ill-typed", _image_typed(enc, ctx, m, a, img, f)),
        ("not-left-inverse", _left_inverse(enc, m, img, f)),
    ]
    contracted = epts_redex(enc.spec, m)
    if contracted is None:
        legs.append(("image-not-normal", _normal_preserved(enc, m, img)))
    else:
        legs.append(("trace-mismatch", _mirrored(enc, m, img, *contracted)))
    return legs


def adequacy_roundtrip(enc: EncodingTheory, ctx: EptsContext, m: EptsTerm,
                       fuel: int | Fuel | None = None) -> list[Diagnostic]:
    """The failures of :func:`adequacy_legs`, in leg order."""
    return [d for _, d in adequacy_legs(enc, ctx, m, fuel) if d is not None]


def _image_typed(enc: EncodingTheory, ctx: EptsContext, m: EptsTerm, a: EptsTerm,
                 img: DkTerm, f: Fuel) -> Diagnostic | None:
    try:
        dk_check(enc.theory, translate_ctx(enc, ctx, f), img,
                 expected_dk_type(enc, ctx, a, f), f)
    except PimodError as e:
        return Diagnostic("image-ill-typed",
                          f"the image fails kernel checking: {e}", data={"term": m})
    return None


def _left_inverse(enc: EncodingTheory, m: EptsTerm, img: DkTerm,
                  f: Fuel) -> Diagnostic | None:
    try:
        back = invert(enc, img, f)
    except NotInvertible as e:
        return Diagnostic("not-left-inverse",
                          f"the image is not invertible: {e}", data={"term": m})
    if back != m:
        return Diagnostic("not-left-inverse",
                          "inverting the image does not give back the term",
                          data={"term": m, "inverted": back})
    return None


def _normal_preserved(enc: EncodingTheory, m: EptsTerm, img: DkTerm) -> Diagnostic | None:
    if step(enc.theory, img, labels=enc.simulation_labels()) is not None:
        return Diagnostic("image-not-normal",
                          "the term is beta-normal but its image still "
                          "has simulation redexes", data={"term": m})
    return None


def _mirrored(enc: EncodingTheory, m: EptsTerm, img: DkTerm, m2: EptsTerm,
              sorts: tuple[str, str]) -> Diagnostic | None:
    expected_label = enc.beta_label(*sorts)
    if step(enc.theory, img, labels={BETA}) is not None:
        return Diagnostic("trace-mismatch",
                          "the image has a raw beta redex before the "
                          "encoded one fires", data={"term": m})
    r1 = step(enc.theory, img, labels=frozenset(enc.beta_rules))
    if r1 is None or r1[1] != expected_label:
        return Diagnostic("trace-mismatch",
                          f"expected the encoded beta step '{expected_label}' "
                          f"first, got {r1[1] if r1 else 'nothing'}",
                          data={"term": m})
    r2 = step(enc.theory, r1[0], labels={BETA})
    if r2 is None:
        return Diagnostic("trace-mismatch",
                          "no framework beta step after the encoded one",
                          data={"term": m})
    if r2[0] != translate(enc, m2):
        return Diagnostic("trace-mismatch",
                          "the two simulation steps do not land on the "
                          "image of the reduct",
                          data={"term": m, "got": r2[0]})
    return None
