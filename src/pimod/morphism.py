"""Signature morphisms between framework theories and their verification.

A morphism sends each source constant to a target term over the
constant's telescope (de Bruijn index 0 is the last telescope entry)
and is extended homomorphically to all terms.  It is sound when every
source declaration's image is well-typed in the target and the image of
every source rewrite step is a target rewrite sequence; ``verify_morphism``
checks the first condition with the kernel and searches a bounded
leftmost-outermost chain for the second.

One call of ``verify_morphism`` maps each source node object once, into
one image table, and types every telescope and body image in one kernel
state.  Substitution keeps what it does not change, so a subterm the
image bodies share, such as the internal representation of a sort, stays
one object, and the kernel types it once per call (see
:mod:`pimod.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encode import EncodingTheory
from .errors import (
    Diagnostic,
    FuelExhausted,
    MissingBody,
    PimodError,
    UnknownSort,
    UnrepresentableSort,
)
from .kernel import _Kernel
from .rewrite import Fuel, step
from .terms import (
    Cons,
    DkContext,
    DkTerm,
    NodeMemo,
    Theory,
    Var,
    subst_many,
)


@dataclass
class TheoryMorphism:
    source: Theory
    target: Theory
    body: dict[str, DkTerm] = field(default_factory=dict)

    def image_of(self, name: str) -> DkTerm:
        if name not in self.body:
            raise MissingBody(f"morphism has no image for constant '{name}'")
        return self.body[name]


def apply_morphism(mor: TheoryMorphism, t: DkTerm) -> DkTerm:
    """Homomorphic extension; pattern variables are carried along inert."""
    return _image(mor, t, NodeMemo())


def _image(mor: TheoryMorphism, t: DkTerm, images: NodeMemo) -> DkTerm:
    """:func:`apply_morphism`, mapping each node object once into ``images``."""
    hit = images.get(id(t))
    if hit is None:
        kids = [_image(mor, k, images) for k, _ in t.children()]
        if type(t) is Cons:
            hit = subst_many(mor.image_of(t.name), tuple(reversed(kids)))
        else:
            hit = t.with_children(kids)
        images.put(id(t), hit, t)
    return hit


def _rule_verdict(mor: TheoryMorphism, start: DkTerm, goal: DkTerm,
                  f: Fuel) -> str:
    """Walk the target chain from ``start`` looking for ``goal``.

    "verified" when some element of the leftmost-outermost reduction
    sequence is alpha-equal to the goal; "refuted" when the chain ends
    at a normal form, the goal is normal too, and they differ (no
    further rewriting can reconcile them); "inconclusive" otherwise.
    """
    t = start
    while True:
        if t == goal:
            return "verified"
        s = step(mor.target, t)
        if s is None:
            return "refuted" if step(mor.target, goal) is None else "inconclusive"
        try:
            f.tick()
        except FuelExhausted:
            return "inconclusive"
        t = s[0]


def verify_morphism(mor: TheoryMorphism,
                    fuel: int | Fuel | None = None) -> list[Diagnostic]:
    """Both soundness conditions; an empty list means fully verified.

    Condition one re-types every constant image in the target over the
    image of its telescope.  Condition two chases the image of each
    source rule's left-hand side through target rewriting until it
    meets the image of the right-hand side.
    """
    out: list[Diagnostic] = []
    f = Fuel.of(fuel)
    k = _Kernel(mor.target, f, None)
    images = NodeMemo()

    declared = {d.name for d in mor.source.signature}
    for name in mor.body:
        if name not in declared:
            out.append(Diagnostic(
                "unused-image",
                f"morphism maps '{name}', which the source never declares",
                name, severity="note"))

    for d in mor.source.signature:
        if d.name not in mor.body:
            out.append(Diagnostic(
                "missing-image", f"no image for source constant '{d.name}'",
                d.name))
            continue
        try:
            ctx = DkContext()
            for hint, a in d.telescope:
                ctx = ctx.extend(hint, _image(mor, a, images))
            bad = k.check_context(ctx)
            if bad:
                out.append(Diagnostic(
                    "image-ill-typed",
                    f"the telescope image of '{d.name}' is not a valid "
                    f"target context: {bad[0].message}", d.name))
                continue
            k.check_judgment(ctx, mor.body[d.name], _image(mor, d.result, images))
        except PimodError as e:
            out.append(Diagnostic(
                "image-ill-typed",
                f"the image of '{d.name}' does not have the image type: {e}",
                d.name))

    for r in mor.source.rules:
        try:
            start = _image(mor, Cons(r.head, r.lhs), images)
            goal = _image(mor, r.rhs, images)
        except MissingBody as e:
            out.append(Diagnostic("missing-image",
                                  f"rule '{r.name}' mentions an unmapped "
                                  f"constant: {e}", r.name))
            continue
        verdict = _rule_verdict(mor, start, goal, f)
        if verdict == "refuted":
            out.append(Diagnostic(
                "rule-not-preserved",
                f"the image of rule '{r.name}' does not rewrite to the "
                "image of its right-hand side", r.name,
                data={"start": start, "goal": goal}))
        elif verdict == "inconclusive":
            out.append(Diagnostic(
                "rule-unverified",
                f"could not decide whether rule '{r.name}' is preserved "
                "within the step budget", r.name, severity="note",
                data={"start": start, "goal": goal}))
    return out


def build_phi(src: EncodingTheory, dst: EncodingTheory) -> TheoryMorphism:
    """The canonical morphism from a finite encoding into an internalized one.

    Each sort-indexed constant family is sent to the corresponding
    uniform constant applied to the internal representation of its
    sorts; the payload arguments pass through unchanged.  Fails with
    :class:`UnrepresentableSort` when the target gives no name to a
    sort the source mentions.
    """
    if src.mode != "finite" or dst.mode != "internalized":
        raise PimodError(
            "expected a finite encoding as source and an internalized one "
            "as target", source=src.mode, target=dst.mode)
    body: dict[str, DkTerm] = {}
    for d in src.theory.signature:
        role = src.role_of(d.name)
        if role is None:
            raise PimodError(f"constant '{d.name}' has no recorded role")
        try:
            body[d.name] = dst.family(role[0], role[1:], tuple(
                Var(k) for k in reversed(range(d.arity))))
        except UnknownSort as e:
            raise UnrepresentableSort(
                f"the target internalization has no term for a sort used "
                f"by '{d.name}'", constant=d.name) from e
    return TheoryMorphism(src.theory, dst.theory, body)
