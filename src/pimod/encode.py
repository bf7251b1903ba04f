"""Generation of framework theories for PTS encodings, and the translation.

For a finite sort specification the generated signature has one
universe ``U@s`` and one decoding family ``El@s`` per sort, one
universe code ``u@s`` per axiom, and one ``Prod``/``abs``/``app``
triple per product rule; sort pairs are baked into constant names.
For an internalized specification there is a single family of each,
indexed by a first-order sort argument, together with the user's sort
formers and the rewrite rules defining ``Ax`` and ``Ru``.

``translate`` maps explicit PTS terms, three annotated nodes over
framework leaves, into the generated theory; it keeps variables, is
blind to types and contexts, commutes with substitution on the nose,
and sends well-typed terms to well-typed terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PimodError
from .rewrite import BETA, Fuel, nf
from .terms import (
    TYPE,
    App,
    Cons,
    Declaration,
    DkContext,
    DkTerm,
    Lam,
    Meta,
    NodeMemo,
    Pi,
    RewriteRule,
    Theory,
    Var,
)
from .epts import (
    CORE_SORT_SIGNATURE,
    EApp,
    ELam,
    EPi,
    EptsContext,
    EptsTerm,
    FiniteSortSpec,
    InternalizedSortSpec,
    SortSpec,
    sort_of_type,
)


def mangle(name: str) -> str:
    """Escape a sort name so it can be embedded into a constant name.

    Characters outside ``[A-Za-z0-9_]`` are replaced by the percent-hex
    encoding of their UTF-8 bytes, so distinct sort names always yield
    distinct constant names and ``@`` stays free as a separator.
    """
    out: list[str] = []
    for ch in name:
        if ch.isascii() and (ch.isalnum() or ch == "_"):
            out.append(ch)
        else:
            out.extend(f"%{b:02X}" for b in ch.encode("utf-8"))
    return "".join(out)


def family_name(role: str, *sorts: str) -> str:
    """Finite-mode name of a constant family, or of the ``u-red``/``beta``
    rule, at the given sorts: ``family_name("app", "Kind", "Type")`` is
    ``app@Kind@Type``."""
    return "@".join([role] + [mangle(s) for s in sorts])


# The constant families every encoding has, with the number of sorts
# that index each.
INTERNAL_CORE = {"U": 1, "El": 1, "u": 1, "Prod": 2, "abs": 2, "app": 2}


@dataclass
class EncodingTheory:
    """A generated theory together with the tables needed to read it back.

    ``roles`` maps each generated constant to its role and, in finite
    mode, the sort names baked into it, e.g. ``("app", "Type", "Type")``.
    :meth:`family` and :meth:`split` are the one place that knows how
    each mode lays out a family member's sorts and payload.
    """

    theory: Theory
    spec: SortSpec
    mode: str  # "finite" | "internalized"
    roles: dict[str, tuple[str, ...]] = field(default_factory=dict)
    beta_rules: tuple[str, ...] = ()
    # finite mode: constant names by (role, sorts), once the sorts are known
    family_names: dict[tuple[str, tuple[str, ...]], str] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def role_of(self, name: str) -> tuple[str, ...] | None:
        return self.roles.get(name)

    def simulation_labels(self) -> frozenset[str]:
        """Labels of the steps that simulate one source beta step."""
        return frozenset(self.beta_rules) | {BETA}

    def family(self, role: str, sorts: tuple[str, ...],
               payload: tuple[DkTerm, ...]) -> DkTerm:
        """The member of family ``role`` at ``sorts`` applied to ``payload``.

        Finite mode bakes the sorts into the constant name; internalized
        mode passes their sort terms as leading arguments.
        """
        if self.mode == "finite":
            name = self.family_names.get((role, sorts))
            if name is None:
                for s in sorts:
                    self.spec.require(s)
                name = self.family_names[role, sorts] = family_name(role, *sorts)
            return Cons(name, payload)
        return Cons(role, tuple(self.spec.sort_term(s) for s in sorts) + payload)

    def split(self, name: str, args: tuple[DkTerm, ...], fuel: Fuel | None = None
              ) -> tuple[str, tuple[str, ...], tuple[DkTerm, ...]] | None:
        """The inverse of :meth:`family`: ``(role, sorts, payload)`` of the
        constant ``name`` applied to ``args``, or None when ``name`` is no
        family member or a sort argument evaluates to no named sort.

        A sort argument that is a named sort term, as every one that
        :meth:`family` writes is, is read off the spec's ``names``; any
        other is normalized first, drawing on ``fuel``."""
        role = self.roles.get(name)
        if role is None:
            return None
        if self.mode == "finite":
            return role[0], role[1:], args
        k = INTERNAL_CORE[role[0]]
        names = self.spec.names
        sorts = []
        for a in args[:k]:
            s = names.get(a)
            if s is None:
                s = names.get(nf(self.spec.mini, a, fuel=fuel))
                if s is None:
                    return None
            sorts.append(s)
        return role[0], tuple(sorts), args[k:]

    def beta_label(self, s1: str, s2: str) -> str:
        """The rewrite-rule name that simulates beta at this sort pair."""
        return family_name("beta", s1, s2) if self.mode == "finite" else "beta"


def generate_finite(spec: FiniteSortSpec) -> EncodingTheory:
    """One constant per sort/axiom/rule; the theory is orthogonal."""
    sig: list[Declaration] = []
    rules: list[RewriteRule] = []
    roles: dict[str, tuple[str, ...]] = {}
    U = lambda s: Cons(family_name("U", s))
    El = lambda s, t: Cons(family_name("El", s), (t,))

    def declare(role: str, sorts: tuple[str, ...], telescope: tuple,
                result: DkTerm) -> str:
        n = family_name(role, *sorts)
        sig.append(Declaration(n, telescope, result))
        roles[n] = (role,) + sorts
        return n

    for s in spec.sorts:
        declare("U", (s,), (), TYPE)
    for s in spec.sorts:
        declare("El", (s,), (("A", U(s)),), TYPE)
    for s in spec.sorts:
        target = spec.axioms.get(s)
        if target is None:
            continue
        n = declare("u", (s,), (), U(target))
        rules.append(RewriteRule(family_name("El", target), (Cons(n),), U(s),
                                 name=family_name("u-red", s)))
    for a in spec.sorts:
        for b in spec.sorts:
            c = spec.rules.get((a, b))
            if c is None:
                continue
            fam = ("B", Pi("x", El(a, Var(0)), U(b)))
            np = declare("Prod", (a, b), (("A", U(a)), fam), U(c))
            na = declare("abs", (a, b), (
                ("A", U(a)), fam,
                ("M", Pi("x", El(a, Var(1)), El(b, App(Var(1), Var(0))))),
            ), El(c, Cons(np, (Var(2), Var(1)))))
            nf = declare("app", (a, b), (
                ("A", U(a)), fam,
                ("M", El(c, Cons(np, (Var(1), Var(0))))),
                ("N", El(a, Var(2))),
            ), El(b, App(Var(2), Var(0))))
            rules.append(RewriteRule(
                nf,
                (Meta("A"), Meta("B"),
                 Cons(na, (Meta("A'"), Meta("B'"), Meta("M"))), Meta("N")),
                App(Meta("M"), Meta("N")),
                name=family_name("beta", a, b)))

    theory = Theory(tuple(sig), tuple(rules))
    return EncodingTheory(
        theory, spec, "finite", roles,
        beta_rules=tuple(r.name for r in rules if r.name.startswith("beta@")))


def generate_internalized(spec: InternalizedSortSpec) -> EncodingTheory:
    """A single sort-indexed universe hierarchy plus the user's sort layer."""
    for d in spec.constants:
        if d.name in INTERNAL_CORE:
            raise PimodError(
                f"sort former '{d.name}' collides with a generated constant")

    S = Cons("Sort")
    el = lambda s, t: Cons("El", (s, t))
    sig: list[Declaration] = list(CORE_SORT_SIGNATURE) + list(spec.constants)
    sig.append(Declaration("U", (("s", S),), TYPE))
    sig.append(Declaration("El", (("s", S), ("A", Cons("U", (Var(0),)))), TYPE))
    sig.append(Declaration("u", (("s", S),),
                           Cons("U", (Cons("Ax", (Var(0),)),))))
    sig.append(Declaration("Prod", (
        ("s1", S), ("s2", S),
        ("A", Cons("U", (Var(1),))),
        ("B", Pi("x", el(Var(2), Var(0)), Cons("U", (Var(2),)))),
    ), Cons("U", (Cons("Ru", (Var(3), Var(2))),))))
    sig.append(Declaration("abs", (
        ("s1", S), ("s2", S),
        ("A", Cons("U", (Var(1),))),
        ("B", Pi("x", el(Var(2), Var(0)), Cons("U", (Var(2),)))),
        ("M", Pi("x", el(Var(3), Var(1)),
                 el(Var(3), App(Var(1), Var(0))))),
    ), Cons("El", (Cons("Ru", (Var(4), Var(3))),
                   Cons("Prod", (Var(4), Var(3), Var(2), Var(1)))))))
    sig.append(Declaration("app", (
        ("s1", S), ("s2", S),
        ("A", Cons("U", (Var(1),))),
        ("B", Pi("x", el(Var(2), Var(0)), Cons("U", (Var(2),)))),
        ("M", Cons("El", (Cons("Ru", (Var(3), Var(2))),
                          Cons("Prod", (Var(3), Var(2), Var(1), Var(0)))))),
        ("N", el(Var(4), Var(2))),
    ), Cons("El", (Var(4), App(Var(2), Var(0))))))

    used = {d.name for d in sig}

    def mv(base: str) -> Meta:
        # pattern-variable names must not shadow the user's sort formers
        while base in used:
            base += "_"
        return Meta(base)

    rules: list[RewriteRule] = [
        RewriteRule("El", (mv("t"), Cons("u", (mv("s"),))),
                    Cons("U", (mv("s"),)), name="u-red"),
        RewriteRule("app", (
            mv("s1"), mv("s2"), mv("A"), mv("B"),
            Cons("abs", (mv("t1"), mv("t2"), mv("A'"), mv("B'"), mv("M"))),
            mv("N"),
        ), App(mv("M"), mv("N")), name="beta"),
    ]
    rules.extend(spec.rules)

    theory = Theory(tuple(sig), tuple(rules))
    roles = {n: (n,) for n in INTERNAL_CORE}
    return EncodingTheory(theory, spec, "internalized", roles, beta_rules=("beta",))


def generate(spec: SortSpec) -> EncodingTheory:
    if isinstance(spec, FiniteSortSpec):
        return generate_finite(spec)
    return generate_internalized(spec)


# --- the translation ------------------------------------------------------------


def translate(enc: EncodingTheory, m: EptsTerm) -> DkTerm:
    """Image of an explicitly annotated term in the generated theory.

    Writes five productions: a variable, whose image is the first source
    ``Var`` of its index, and through :meth:`EncodingTheory.family` a
    universe code ``u``, and ``Prod``, ``abs`` and ``app``, whose binders
    are annotated with ``El`` of the domain's image.
    :func:`pimod.decode.invert` reads the same productions back.
    Variables keep their indices, so the image of a judgment lives over
    the pointwise-translated context.  Substitution commutes with this
    map syntactically: translate(M)[translate(N)/x] == translate(M[N/x]).

    The image is maximally shared: two of its nodes that are equal, binder
    hints included, are one object.  So the type codes that every ``abs``
    and ``app`` repeats are built once, and every table downstream keyed
    by node identity does its work once per distinct subterm.
    """
    return _Translation(enc).term(m)


class _Translation:
    """One call's translation: images by source node object, and the image's
    nodes by constructor, hint or name and children's objects."""

    __slots__ = ("enc", "images", "nodes")

    def __init__(self, enc: EncodingTheory):
        self.enc = enc
        self.images = NodeMemo()
        self.nodes = NodeMemo()

    def term(self, m: EptsTerm) -> DkTerm:
        img = self.images.get(id(m))
        if img is None:
            img = self.images.put(id(m), self._image(m), m)
        return img

    def share(self, key: object, t: DkTerm) -> DkTerm:
        """The image's one node under ``key`` (constructor, hint or name, and
        the children's objects): ``t``, unless an equal node came first."""
        u = self.nodes.get(key)
        return u if u is not None else self.nodes.put(key, t, t)

    def family(self, role: str, sorts: tuple[str, ...], payload: tuple[DkTerm, ...]) -> DkTerm:
        t = self.enc.family(role, sorts, payload)
        return self.share((t.name, *map(id, t.args)), t)

    def el(self, s: str, a: EptsTerm) -> DkTerm:
        """``El`` at ``s`` of the image of the type ``a``."""
        return self.family("El", (s,), (self.term(a),))

    def lam(self, h: str, ann: DkTerm, body: EptsTerm) -> DkTerm:
        b = self.term(body)
        return self.share((Lam, h, id(ann), id(b)), Lam(h, ann, b))

    def _image(self, m: EptsTerm) -> DkTerm:
        fam, term, lam = self.family, self.term, self.lam
        match m:
            case Var(k):
                return self.share(k, m)
            case Cons(s, ()):
                return fam("u", (s,), ())
            case EPi(s1, s2, dom, h, cod):
                ann = self.el(s1, dom)
                return fam("Prod", (s1, s2), (term(dom), lam(h, ann, cod)))
            case ELam(s1, s2, dom, h, cod, body):
                ann = self.el(s1, dom)
                return fam("abs", (s1, s2), (term(dom), lam(h, ann, cod), lam(h, ann, body)))
            case EApp(s1, s2, dom, h, cod, fn, arg):
                ann = self.el(s1, dom)
                return fam("app", (s1, s2), (term(dom), lam(h, ann, cod), term(fn), term(arg)))
        raise PimodError(f"cannot translate {m!r}")


def translate_ctx(enc: EncodingTheory, ctx: EptsContext,
                  fuel: int | Fuel | None = None) -> DkContext:
    """Pointwise image of a context; each entry lands in its decoding family."""
    f = Fuel.of(fuel)
    tr = _Translation(enc)
    out = DkContext()
    prefix = EptsContext()
    for hint, a in ctx.entries:
        out = out.extend(hint, tr.el(sort_of_type(enc.spec, prefix, a, f), a))
        prefix = prefix.extend(hint, a)
    return out


def expected_dk_type(enc: EncodingTheory, ctx: EptsContext, a: EptsTerm,
                     fuel: int | Fuel | None = None) -> DkTerm:
    """The framework type over ``translate_ctx`` for terms of type ``a``.

    Top sorts land in their universe directly (they have no type, so no
    enclosing ``El``); every other type lands in the decoding of its own
    image, which for a non-top sort ``s`` is convertible to the universe
    of ``s`` by the u-red rule.
    """
    match a:
        case Cons(s, ()) if not enc.spec.axiom_defined(s):
            return enc.family("U", (s,), ())
    return _Translation(enc).el(sort_of_type(enc.spec, ctx, a, fuel), a)
