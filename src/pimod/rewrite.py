"""Reduction engine: labeled rewriting, normalization, conversion, overlaps.

Reduction is beta plus the theory's rewrite rules.  Every contraction
carries a label: the framework beta steps are labeled ``BETA`` and rule
steps carry the rule's name, so normalization can be restricted to a
subset of labels and traces can be replayed and inspected.

The search, the trace loop and the congruence descent are written once,
over the child map, for every term language that reduces: a language
supplies only its ``root``, the labeled redexes at a term's root, to
:func:`redexes` and :func:`normalize`, and its weak-head normalizer to
:func:`congruent`.  The framework's root is beta and the theory's rules;
:mod:`pimod.epts` supplies linearized beta, labeled by its sort pair.

``step``/``nf`` follow the leftmost-outermost strategy on the term as
written.  ``whnf`` additionally evaluates constant arguments on demand
while matching, which is what conversion checking needs: a rule whose
pattern inspects an argument position must see that argument's head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import Diagnostic, FuelExhausted
from .terms import (
    App, Cons, DkTerm, Lam, Meta, RewriteRule, Term, Theory,
    instantiate, map_leaves, repeated_metas, subst,
)

BETA = "β"

# the (label, reduct) pairs of the redexes at a term's root
Root = Callable[[Term], Iterable[tuple[object, Term]]]

DEFAULT_FUEL = 1_000_000


class Fuel:
    """A mutable step budget shared across one top-level operation.

    Every layer, the kernel included, takes ``int | Fuel | None`` through
    :meth:`of`: an int or None starts a fresh meter, a ``Fuel`` is drawn
    on as it is, so one meter handed down bounds the whole operation.
    """

    __slots__ = ("remaining", "limit")

    def __init__(self, limit: int = DEFAULT_FUEL):
        if limit <= 0:
            raise ValueError("fuel budget must be positive")
        self.remaining = limit
        self.limit = limit

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted(f"reduction exceeded the budget of {self.limit} steps")

    @staticmethod
    def of(fuel: "int | Fuel | None") -> "Fuel":
        if fuel is None:
            return Fuel(DEFAULT_FUEL)
        if isinstance(fuel, Fuel):
            return fuel
        return Fuel(fuel)


def match_pattern(pattern: DkTerm, term: DkTerm, env: dict[str, DkTerm]) -> bool:
    """First-order syntactic matching; binds pattern variables in ``env``."""
    match pattern:
        case Meta(n):
            if n in env:
                return env[n] == term
            env[n] = term
            return True
        case Cons(c, ps):
            if isinstance(term, Cons) and term.name == c and len(term.args) == len(ps):
                return all(match_pattern(p, a, env) for p, a in zip(ps, term.args))
            return False
        case _:
            return False


def _match_rule(rule: RewriteRule, args: tuple[DkTerm, ...]) -> dict[str, DkTerm] | None:
    env: dict[str, DkTerm] = {}
    if len(args) != len(rule.lhs):
        return None
    for p, a in zip(rule.lhs, args):
        if not match_pattern(p, a, env):
            return None
    return env


def redexes(root: Root, t: Term) -> Iterator[tuple[tuple[int, ...], object, Term]]:
    """Lazily, every one-step reduct of ``t``, leftmost-outermost first, as
    (position, label, reduct).

    ``root(u)`` lists the (label, reduct) pairs of the redexes at ``u``'s
    root.  The root comes before its children, and the children in the
    order ``children()`` lists them; positions are child-index paths in
    that order.
    """
    for label, red in root(t):
        yield (), label, red
    kids = [k for k, _ in t.children()]
    for i, k in enumerate(kids):
        for path, label, red in redexes(root, k):
            yield (i, *path), label, t.with_children(kids[:i] + [red] + kids[i + 1:])


def normalize(root: Root, t: Term,
              fuel: int | Fuel | None = None) -> tuple[Term, list[tuple[object, Term]]]:
    """Contract the first of :func:`redexes` until there is none, one tick
    of ``fuel`` per step; the normal form and the labeled trace."""
    f = Fuel.of(fuel)
    trace: list[tuple[object, Term]] = []
    while True:
        r = next(redexes(root, t), None)
        if r is None:
            return t, trace
        f.tick()
        t = r[2]
        trace.append((r[1], t))


def congruent(whnf: Callable[[Term], Term], a: Term, b: Term) -> bool:
    """Are ``a`` and ``b`` equal after ``whnf`` at the root and at every
    pair of corresponding children, descending while the nodes agree?"""
    a = whnf(a)
    b = whnf(b)
    if a == b:
        return True
    return a.same_node(b) and all(
        congruent(whnf, p, q) for (p, _), (q, _) in zip(a.children(), b.children()))


def _rule_root(theory: Theory, labels: frozenset[str] | set[str] | None) -> Root:
    """The framework's root redexes: beta, then the theory's rules in
    order, those whose label lies in ``labels`` (all if None)."""
    beta = labels is None or BETA in labels

    def root(t: DkTerm):
        match t:
            case App(Lam(_, _, body), arg) if beta:
                yield BETA, subst(body, 0, arg)
            case Cons(c, args):
                for rule in theory.rules_for(c):
                    if labels is None or rule.name in labels:
                        env = _match_rule(rule, args)
                        if env is not None:
                            yield rule.name, instantiate(rule.rhs, env)

    return root


def step(theory: Theory, t: DkTerm, labels: frozenset[str] | set[str] | None = None) -> tuple[DkTerm, str] | None:
    """One leftmost-outermost step whose label lies in ``labels`` (all if None).

    Returns the contracted term and the step's label, or None when no
    such redex exists.
    """
    r = next(redexes(_rule_root(theory, labels), t), None)
    return None if r is None else (r[2], r[1])


def reducts(theory: Theory, t: DkTerm) -> list[tuple[tuple[int, ...], str, DkTerm]]:
    """All one-step reducts of ``t`` at every position, with labels.

    Positions are child-index paths, listed leftmost-outermost first; the
    first entry whose label passes a filter is the step :func:`step` takes.
    """
    return list(redexes(_rule_root(theory, None), t))


def reduce_trace(
    theory: Theory,
    t: DkTerm,
    labels: frozenset[str] | set[str] | None = None,
    fuel: int | Fuel | None = None,
) -> tuple[DkTerm, list[tuple[str, DkTerm]]]:
    """Normalize under the label filter, returning the labeled trace."""
    return normalize(_rule_root(theory, labels), t, fuel)


def nf(
    theory: Theory,
    t: DkTerm,
    labels: frozenset[str] | set[str] | None = None,
    fuel: int | Fuel | None = None,
) -> DkTerm:
    """Leftmost-outermost normal form w.r.t. the labeled sub-relation."""
    return reduce_trace(theory, t, labels, fuel)[0]


def _match_whnf(theory: Theory, pattern: DkTerm, holder: list[DkTerm], idx: int,
                env: dict[str, DkTerm], fuel: Fuel) -> bool:
    """Match with on-demand weak-head evaluation of inspected positions.

    Reductions performed while matching are kept in ``holder`` so later
    rule attempts (and the returned term on failure) reuse them.
    """
    match pattern:
        case Meta(n):
            if n in env:
                return env[n] == holder[idx]
            env[n] = holder[idx]
            return True
        case Cons(c, ps):
            t = whnf(theory, holder[idx], fuel)
            holder[idx] = t
            if not (isinstance(t, Cons) and t.name == c and len(t.args) == len(ps)):
                return False
            sub = list(t.args)
            ok = True
            for k, p in enumerate(ps):
                if not _match_whnf(theory, p, sub, k, env, fuel):
                    ok = False
                    break
            holder[idx] = Cons(c, tuple(sub))
            return ok
        case _:
            return False


def whnf(theory: Theory, t: DkTerm, fuel: int | Fuel | None = None) -> DkTerm:
    """Weak-head normal form under beta and the theory's rules.

    The result is root-stable: no further reduction anywhere can create
    a redex at its root (rules are matched after weak-head evaluating
    the argument positions their patterns inspect).
    """
    f = Fuel.of(fuel)
    while True:
        match t:
            case App(fn, arg):
                head = whnf(theory, fn, f)
                if isinstance(head, Lam):
                    f.tick()
                    t = subst(head.body, 0, arg)
                    continue
                return t if head is fn else App(head, arg)
            case Cons(c, args):
                rules = theory.rules_for(c)
                if not rules:
                    return t
                holder = list(args)
                fired = False
                for rule in rules:
                    env: dict[str, DkTerm] = {}
                    ok = True
                    for i, p in enumerate(rule.lhs):
                        if not _match_whnf(theory, p, holder, i, env, f):
                            ok = False
                            break
                    if ok:
                        f.tick()
                        t = instantiate(rule.rhs, env)
                        fired = True
                        break
                if not fired:
                    return Cons(c, tuple(holder))
            case _:
                return t


def convertible(theory: Theory, a: DkTerm, b: DkTerm, fuel: int | Fuel | None = None) -> bool:
    """Do ``a`` and ``b`` have a common reduct?

    Decided by weak-head reduction and congruence descent; complete for
    confluent theories, which is the setting the rest of the toolkit
    establishes before relying on it.
    """
    f = Fuel.of(fuel)
    return congruent(lambda u: whnf(theory, u, f), a, b)


# --- overlap analysis -------------------------------------------------------


def _rename_metas(t: DkTerm, suffix: str) -> DkTerm:
    return map_leaves(t, lambda u, _: Meta(u.name + suffix) if isinstance(u, Meta) else u)


def _apply_sub(t: DkTerm, sub: dict[str, DkTerm]) -> DkTerm:
    def leaf(u: DkTerm, _: int) -> DkTerm:
        if isinstance(u, Meta) and u.name in sub:
            return _apply_sub(sub[u.name], sub)
        return u
    return map_leaves(t, leaf)


def _occurs(n: str, t: DkTerm, sub: dict[str, DkTerm]) -> bool:
    match t:
        case Meta(m):
            if m == n:
                return True
            return m in sub and _occurs(n, sub[m], sub)
        case Cons(_, args):
            return any(_occurs(n, a, sub) for a in args)
        case _:
            return False


def _unify(a: DkTerm, b: DkTerm, sub: dict[str, DkTerm]) -> bool:
    a = _apply_sub(a, sub)
    b = _apply_sub(b, sub)
    if a == b:
        return True
    match (a, b):
        case (Meta(n), _):
            if _occurs(n, b, sub):
                return False
            sub[n] = b
            return True
        case (_, Meta(n)):
            if _occurs(n, a, sub):
                return False
            sub[n] = a
            return True
        case (Cons(c1, x1), Cons(c2, x2)):
            return c1 == c2 and len(x1) == len(x2) and all(_unify(p, q, sub) for p, q in zip(x1, x2))
        case _:
            return False


def _pattern_positions(t: DkTerm, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], DkTerm]]:
    """Non-variable positions of a pattern term."""
    out: list[tuple[tuple[int, ...], DkTerm]] = []
    if isinstance(t, Cons):
        out.append((path, t))
        for i, a in enumerate(t.args):
            out.extend(_pattern_positions(a, path + (i,)))
    return out


def _replace_at(t: DkTerm, path: tuple[int, ...], new: DkTerm) -> DkTerm:
    if not path:
        return new
    assert isinstance(t, Cons)
    i = path[0]
    return Cons(t.name, t.args[:i] + (_replace_at(t.args[i], path[1:], new),) + t.args[i + 1:])


@dataclass
class OrthogonalityReport:
    """Outcome of the overlap analysis.

    ``problems`` are left-linearity violations and overlaps whose
    critical pair is not trivially equal; ``notes`` record overlaps both
    of whose one-step reducts coincide (harmless for confluence, but
    still overlaps).
    """

    problems: list[Diagnostic] = field(default_factory=list)
    notes: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def orthogonal(self) -> bool:
        return not self.problems and not self.notes


def check_orthogonal(theory: Theory) -> OrthogonalityReport:
    """Left-linearity plus critical-pair analysis of the theory's rules.

    Self-overlaps are considered at proper subterm positions only; a
    rule trivially unifies with itself at the root.  A rule is unified
    only with the non-variable positions of another rule's left-hand
    side whose constant is its head, since no other pair can overlap.
    Rules may share a name, so a root overlap is reported once per pair
    of rule positions in the theory, not once per pair of names.
    Problems and notes come out rule-major: by the outer rule, then the
    inner rule, then the position.
    """
    report = OrthogonalityReport()
    for r in theory.rules:
        for n in repeated_metas(r.lhs):
            report.problems.append(Diagnostic(
                "non-left-linear",
                f"pattern variable '{n}' occurs twice on the left-hand side",
                r.name))

    rules = theory.rules
    by_head: dict[str, list[int]] = {}
    for j, r in enumerate(rules):
        by_head.setdefault(r.head, []).append(j)
    inner = [(Cons(r.head, tuple(_rename_metas(p, "#2") for p in r.lhs)),
              _rename_metas(r.rhs, "#2")) for r in rules]
    seen_root_pairs: set[tuple[int, int]] = set()
    for i, r1 in enumerate(rules):
        lhs1 = Cons(r1.head, tuple(_rename_metas(p, "#1") for p in r1.lhs))
        rhs1 = _rename_metas(r1.rhs, "#1")
        positions = _pattern_positions(lhs1)
        candidates = sorted({j for _, sub_t in positions for j in by_head.get(sub_t.name, ())})
        for j in candidates:
            r2 = rules[j]
            lhs2, rhs2 = inner[j]
            for path, sub_t in positions:
                if sub_t.name != r2.head:
                    continue
                root = (min(i, j), max(i, j)) if path == () else None
                if root is not None and (i == j or root in seen_root_pairs):
                    continue
                sub: dict[str, DkTerm] = {}
                if not _unify(sub_t, lhs2, sub):
                    continue
                if root is not None:
                    seen_root_pairs.add(root)
                peak = _apply_sub(lhs1, sub)
                red_outer = _apply_sub(rhs1, sub)
                red_inner = _apply_sub(_replace_at(lhs1, path, rhs2), sub)
                diag = Diagnostic(
                    "overlap",
                    f"rule '{r2.name}' overlaps '{r1.name}' at position {list(path)}",
                    r1.name,
                    data={"peak": peak, "left": red_outer, "right": red_inner},
                )
                if red_outer == red_inner:
                    diag.severity = "note"
                    diag.message += " (critical pair is trivial)"
                    report.notes.append(diag)
                else:
                    report.problems.append(diag)
    return report
