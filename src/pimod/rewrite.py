"""Reduction engine: labeled rewriting, normalization, conversion, overlaps.

Reduction is beta plus the theory's rewrite rules.  Every contraction
carries a label: the framework beta steps are labeled ``BETA`` and rule
steps carry the rule's name, so normalization can be restricted to a
subset of labels and traces can be replayed and inspected.

The search and the trace loop are written once, over the child map, for
every term language that reduces: a language supplies only its ``root``,
the labeled redexes at a term's root, to :func:`first_redex` and
:func:`normalize`; a normalization searches each node object it finds
free of redexes once.  The framework's root is beta and the theory's
rules; :mod:`pimod.epts` supplies linearized beta, labeled by its sort
pair, and its weak-head normalizer to the congruence descent
:func:`congruent`.

``step``/``nf`` follow the leftmost-outermost strategy on the term as
written.  The framework's weak-head evaluation and conversion run on
the closures of :class:`Machine`, which the kernel shares; its ``whnf``
additionally evaluates constant arguments on demand while matching,
which is what conversion checking needs: a rule whose pattern inspects
an argument position must see that argument's head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import Diagnostic, FuelExhausted
from .terms import (
    App, Cons, DkTerm, Lam, Meta, NodeMemo, Pi, RewriteRule, Term, Theory, Var,
    map_leaves, metas_of, repeated_metas, subst, subst_many, subterms,
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


def first_redex(root: Root, t: Term,
                clean: NodeMemo) -> tuple[tuple[int, ...], object, Term] | None:
    """The leftmost-outermost one-step reduct of ``t`` as (position, label,
    reduct), or None when ``t`` has no redex.

    ``root(u)`` lists the (label, reduct) pairs of the redexes at ``u``'s
    root.  The root comes before its children, and the children in the
    order ``children()`` lists them; positions are child-index paths in
    that order.

    ``clean`` holds the node objects known to contain no redex: the
    search skips them and adds each node it finds none in.  ``root`` must
    look only at the subterm it is given, and terms are immutable, so
    such a node stays clean at every position of every later reduct: one
    ``clean`` serves a whole reduction sequence, but only under one
    ``root``.
    """
    for label, red in root(t):
        return (), label, red
    kids = [k for k, _ in t.children()]
    for i, k in enumerate(kids):
        if id(k) not in clean:
            r = first_redex(root, k, clean)
            if r is not None:
                path, label, red = r
                return (i, *path), label, t.with_children(kids[:i] + [red] + kids[i + 1:])
    clean.put(id(t), True, t)
    return None


def normalize(root: Root, t: Term,
              fuel: int | Fuel | None = None) -> Iterator[tuple[object, Term]]:
    """Contract :func:`first_redex`, over one ``clean`` memo, until there
    is none, one tick of ``fuel`` per step, yielding each step's label
    and reduct: the last reduct is the normal form, and a caller that
    keeps only it holds no trace."""
    f = Fuel.of(fuel)
    clean = NodeMemo()
    while (r := first_redex(root, t, clean)) is not None:
        f.tick()
        t = r[2]
        yield r[1], t


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
                for name, lhs, names, rhs in rules_at(theory, c, len(args)):
                    if labels is None or name in labels:
                        env: dict[str, DkTerm] = {}
                        for p, a in zip(lhs, args):
                            if not match_pattern(p, a, env):
                                break
                        else:
                            yield name, subst_many(rhs, tuple(env[n] for n in reversed(names)))

    return root


def step(theory: Theory, t: DkTerm, labels: frozenset[str] | set[str] | None = None) -> tuple[DkTerm, str] | None:
    """One leftmost-outermost step whose label lies in ``labels`` (all if None).

    Returns the contracted term and the step's label, or None when no
    such redex exists.
    """
    r = first_redex(_rule_root(theory, labels), t, NodeMemo())
    return None if r is None else (r[2], r[1])


def reduce_trace(
    theory: Theory,
    t: DkTerm,
    labels: frozenset[str] | set[str] | None = None,
    fuel: int | Fuel | None = None,
) -> tuple[DkTerm, list[tuple[str, DkTerm]]]:
    """Normalize under the label filter, returning the labeled trace."""
    trace = list(normalize(_rule_root(theory, labels), t, fuel))
    return (trace[-1][1] if trace else t), trace


def nf(
    theory: Theory,
    t: DkTerm,
    labels: frozenset[str] | set[str] | None = None,
    fuel: int | Fuel | None = None,
) -> DkTerm:
    """Leftmost-outermost normal form w.r.t. the labeled sub-relation."""
    for _, t in normalize(_rule_root(theory, labels), t, fuel):
        pass
    return t


# --- the machine on closures -----------------------------------------------
#
# Weak-head evaluation and conversion run on values, never on rebuilt
# terms.  A value is a closure ``Clo(term, env)``, in which variable ``k``
# of ``term`` stands for the value ``env[-1 - k]``, or one of the weak-head
# normal forms evaluation produces: a context variable, which is the int
# of its de Bruijn level (0 for the outermost binder, negative for a free
# variable of a term given without context), a ``VApp`` whose head is no
# abstraction, a ``VCons`` whose rules did not fire (with the arguments
# that matching evaluated), and a ``VPi``, the type the kernel infers for
# an abstraction.  A beta or rule step pushes values onto an environment
# instead of substituting, so no term is shifted or copied;
# ``Machine.quote`` rebuilds the term a value stands for, and only printed
# terms are quoted.
#
# A closure reads only the last entries of its environment: as many as
# its term's loose bound, one past the largest de Bruijn index free in
# the term (0 for a closed term).  So one term object under two
# environments stands for one term when those last entries are the same
# values, however the entries before them differ; ``Machine.loose``
# computes the bound once per node object and call.


class Clo:
    """``term`` under ``env``: variable ``k`` of ``term`` stands for the
    value ``env[-1 - k]``.  Built through :meth:`Machine.clo`, so ``term``
    is never a variable."""

    __slots__ = ("term", "env")

    def __init__(self, term: DkTerm, env: tuple):
        self.term, self.env = term, env


class VApp:
    """An application whose head is weak-head normal and no abstraction."""

    __slots__ = ("head", "arg")

    def __init__(self, head, arg):
        self.head, self.arg = head, arg


class VCons:
    """A constant application no rule fired on; matching left the
    arguments it inspected evaluated."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list):
        self.name, self.args = name, args


class VPi:
    """The product ``Pi hint : dom. cod`` whose codomain ``cod`` is a value
    with its bound variable at ``level``."""

    __slots__ = ("hint", "dom", "cod", "level")

    def __init__(self, hint: str, dom, cod, level: int):
        self.hint, self.dom, self.cod, self.level = hint, dom, cod, level


_HEAD_CLASS = {int: Var, VApp: App, VCons: Cons, VPi: Pi}


def head_class(v) -> type:
    """The term class of the root of the term ``v`` stands for."""
    return type(v.term) if type(v) is Clo else _HEAD_CLASS[type(v)]


def _compile(rule: RewriteRule) -> tuple:
    """``rule`` as both engines fire it: its name, the left-hand side, the
    pattern variables in reverse order of first occurrence (the order in
    which their values make up the right-hand side's environment), and
    the right-hand side over that environment."""
    names = list(dict.fromkeys(n for p in rule.lhs for n in metas_of(p)))
    index = {n: i for i, n in enumerate(names)}

    def leaf(u: DkTerm, d: int) -> DkTerm:
        if isinstance(u, Meta) and u.name in index:
            return Var(d + index[u.name])
        return u
    return rule.name, rule.lhs, tuple(reversed(names)), map_leaves(rule.rhs, leaf)


def rules_at(theory: Theory, head: str, arity: int) -> tuple:
    """The rules that may fire on ``head`` applied to ``arity`` arguments,
    in the theory's order, each compiled by :func:`_compile` on first use."""
    rules = theory.compiled_rules.get((head, arity))
    if rules is None:
        rules = theory.compiled_rules[head, arity] = tuple(
            _compile(r) for r in theory.rules_for(head) if len(r.lhs) == arity)
    return rules


class Machine:
    """Weak-head evaluation, conversion and quoting of values over one
    theory, drawing every step on one fuel meter.

    The machine contracts the redexes the term rewriter would, in the same
    order, and keeps what matching evaluated the way it would, so it
    spends the same ticks; the terms :meth:`quote` rebuilds are the
    rewriter's terms.  It lives for one top-level call: it compares its
    environments by identity, so values of two machines must not meet.
    """

    __slots__ = ("theory", "fuel", "envs", "top", "bounds")

    def __init__(self, theory: Theory, fuel: Fuel):
        self.theory = theory
        self.fuel = fuel
        self.envs: list[tuple] = [()]
        self.top = 0   # above every level used so far
        self.bounds = NodeMemo()   # the loose bound of each node met by loose()

    def var(self, level: int) -> int:
        if level >= self.top:
            self.top = level + 1
        return level

    def env(self, depth: int) -> tuple:
        """The environment of a context of ``depth`` entries: each variable
        stands for its own level."""
        envs = self.envs
        while len(envs) <= depth:
            envs.append(envs[-1] + (self.var(len(envs) - 1),))
        return envs[depth]

    def extend(self, env: tuple, depth: int) -> tuple:
        """``env`` under one more binder, whose variable is at ``depth``."""
        if depth < len(self.envs) and env is self.envs[depth]:
            return self.env(depth + 1)
        return env + (self.var(depth),)

    def clo(self, t: DkTerm, env: tuple):
        """``t`` under ``env``; a variable is looked up at once, and one past
        ``env`` is a context variable counted from ``env``'s start."""
        if type(t) is Var:
            k = t.index
            return env[-1 - k] if k < len(env) else self.var(len(env) - 1 - k)
        return Clo(t, env)

    def whnf(self, v):
        """Weak-head normal form under beta and the theory's rules.

        The result is root-stable: rules are matched after weak-head
        evaluating the argument positions their patterns inspect.
        """
        while type(v) is Clo:
            t = v.term
            if type(t) is App:
                head = self.whnf(self.clo(t.fn, v.env))
                arg = self.clo(t.arg, v.env)
                if type(head) is Clo and type(head.term) is Lam:
                    self.fuel.tick()
                    v = self.clo(head.term.body, head.env + (arg,))
                    continue
                return VApp(head, arg)
            if type(t) is not Cons:
                return v
            rules = rules_at(self.theory, t.name, len(t.args))
            if not rules:
                return v
            holder = [self.clo(a, v.env) for a in t.args]
            for _, lhs, names, rhs in rules:
                menv: dict = {}
                for i, p in enumerate(lhs):
                    if not self._match(p, holder, i, menv):
                        break
                else:
                    self.fuel.tick()
                    v = self.clo(rhs, tuple([menv[n] for n in names]))
                    break
            else:
                return VCons(t.name, holder)
        return v

    def _match(self, pattern: DkTerm, holder: list, idx: int, menv: dict) -> bool:
        """Match with on-demand weak-head evaluation of inspected positions.

        What matching evaluates stays in ``holder``, so later rule attempts
        (and the value returned when none fires) reuse it.
        """
        if type(pattern) is Meta:
            n = pattern.name
            if n in menv:
                return self.eq(menv[n], holder[idx], self.top)
            menv[n] = holder[idx]
            return True
        if type(pattern) is not Cons:
            return False
        w = holder[idx] = self.whnf(holder[idx])
        c, ps = pattern.name, pattern.args
        if type(w) is VCons and w.name == c and len(w.args) == len(ps):
            sub = list(w.args)
        elif (type(w) is Clo and type(w.term) is Cons and w.term.name == c
              and len(w.term.args) == len(ps)):
            sub = [self.clo(a, w.env) for a in w.term.args]
        else:
            return False
        ok = True
        for k, p in enumerate(ps):
            if not self._match(p, sub, k, menv):
                ok = False
                break
        holder[idx] = VCons(c, sub)
        return ok

    def node(self, v, depth: int) -> tuple:
        """The constructor of the term ``v`` stands for at ``depth``, as a
        key equal exactly when the children correspond, and its children
        as (value, binders crossed) pairs."""
        tv = type(v)
        if tv is Clo:
            t, env = v.term, v.env
            tt = type(t)
            key = (tt, t.name, len(t.args)) if tt is Cons else (tt, t.name) if tt is Meta else tt
            return key, [(self.clo(k, self.extend(env, depth) if b else env), b)
                         for k, b in t.children()]
        if tv is VCons:
            return (Cons, v.name, len(v.args)), [(a, 0) for a in v.args]
        if tv is VApp:
            return App, [(v.head, 0), (v.arg, 0)]
        if tv is VPi:
            return Pi, [(v.dom, 0), (self.cod_at(v, depth), 1)]
        return v, []

    def eq(self, a, b, depth: int) -> bool:
        """Do ``a`` and ``b`` stand for the same term at ``depth``?"""
        if a is b:
            return True
        if type(a) is Clo and type(b) is Clo:
            return self._eq_terms(a.term, a.env, b.term, b.env, depth)
        ka, xa = self.node(a, depth)
        kb, xb = self.node(b, depth)
        if ka != kb:
            return False
        for (p, n), (q, _) in zip(xa, xb):
            if not self.eq(p, q, depth + n):
                return False
        return True

    def loose(self, t: DkTerm) -> int:
        """The loose bound of ``t``: one past its largest free de Bruijn
        index, 0 when ``t`` is closed."""
        if type(t) is Var:
            return t.index + 1
        b = self.bounds.get(id(t))
        if b is None:
            b = 0
            for k, n in t.children():
                kb = self.loose(k) - n
                if kb > b:
                    b = kb
            self.bounds.put(id(t), b, t)
        return b

    def _eq_terms(self, t: DkTerm, ea: tuple, u: DkTerm, eb: tuple, depth: int) -> bool:
        """:meth:`eq` of ``t`` under ``ea`` and ``u`` under ``eb``, without
        building their closures.  At once for one term object under one
        environment, or under two whose last ``loose(t)`` entries are the
        same values (a closed term under any two); when that bound reaches
        past either environment, under equal environments only.  By ``==``
        on the terms under one environment of a context, where each
        variable is its own level."""
        if type(t) is Var or type(u) is Var:
            return self.eq(self.clo(t, ea), self.clo(u, eb), depth)
        if ea is eb:
            if t is u:
                return True
            if len(ea) < len(self.envs) and self.envs[len(ea)] is ea:
                return t == u
        elif t is u:
            n = self.loose(t)
            if n == 0:
                return True
            la, lb = len(ea), len(eb)
            if n <= la and n <= lb:
                if ea[la - n:] == eb[lb - n:]:
                    return True
            elif ea == eb:
                return True
        tt = type(t)
        if tt is not type(u):
            return False
        if tt is Cons:
            if t.name != u.name or len(t.args) != len(u.args):
                return False
            for x, y in zip(t.args, u.args):
                if not self._eq_terms(x, ea, y, eb, depth):
                    return False
            return True
        if tt is App:
            return (self._eq_terms(t.fn, ea, u.fn, eb, depth)
                    and self._eq_terms(t.arg, ea, u.arg, eb, depth))
        if tt is Lam or tt is Pi:
            (x0, _), (x1, _) = t.children()
            (y0, _), (y1, _) = u.children()
            return (self._eq_terms(x0, ea, y0, eb, depth)
                    and self._eq_terms(x1, self.extend(ea, depth), y1, self.extend(eb, depth),
                                       depth + 1))
        return t == u

    def conv(self, a, b, depth: int) -> bool:
        """Are ``a`` and ``b`` equal after weak-head evaluation at the root and
        at every pair of corresponding children, descending while the nodes
        agree?  The congruence descent of :func:`congruent`, on values."""
        a = self.whnf(a)
        b = self.whnf(b)
        if self.eq(a, b, depth):
            return True
        ka, xa = self.node(a, depth)
        kb, xb = self.node(b, depth)
        if ka != kb:
            return False
        for (p, n), (q, _) in zip(xa, xb):
            if not self.conv(p, q, depth + n):
                return False
        return True

    def dom(self, p):
        """The domain of a product value."""
        return p.dom if type(p) is VPi else self.clo(p.term.dom, p.env)

    def instantiate(self, p, arg):
        """The codomain of a product value with ``arg`` for its variable."""
        if type(p) is Clo:
            return self.clo(p.term.cod, p.env + (arg,))
        return self.clo(self.quote(p.cod, p.level + 1), self.env(p.level) + (arg,))

    def cod_at(self, p: VPi, depth: int):
        """The codomain of ``p`` with its variable at level ``depth``."""
        return p.cod if p.level == depth else self.instantiate(p, self.var(depth))

    def quote(self, v, depth: int) -> DkTerm:
        """The term ``v`` stands for in a context of ``depth`` entries."""
        tv = type(v)
        if tv is Clo:
            t, env = v.term, v.env
            kids = t.children()
            if not kids or depth < len(self.envs) and env is self.envs[depth]:
                return t
            return t.with_children([self.quote(self.clo(k, self.extend(env, depth) if b else env),
                                               depth + b) for k, b in kids])
        if tv is int:
            return Var(depth - 1 - v)
        if tv is VCons:
            return Cons(v.name, tuple(self.quote(a, depth) for a in v.args))
        if tv is VApp:
            return App(self.quote(v.head, depth), self.quote(v.arg, depth))
        return Pi(v.hint, self.quote(v.dom, depth), self.quote(self.cod_at(v, depth), depth + 1))


def convertible(theory: Theory, a: DkTerm, b: DkTerm, fuel: int | Fuel | None = None) -> bool:
    """Do ``a`` and ``b`` have a common reduct?

    Decided by weak-head reduction and congruence descent; complete for
    confluent theories, which is the setting the rest of the toolkit
    establishes before relying on it.
    """
    m = Machine(theory, Fuel.of(fuel))
    return m.conv(m.clo(a, ()), m.clo(b, ()), 0)


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
    """Does pattern variable ``n`` occur anywhere in ``t`` under ``sub``?"""
    return any(type(u) is Meta and (u.name == n or u.name in sub and _occurs(n, sub[u.name], sub))
               for u, _ in subterms(t))


def _unify(a: DkTerm, b: DkTerm, sub: dict[str, DkTerm]) -> bool:
    """Extend ``sub`` to a most general unifier of ``a`` and ``b``, looking
    up a bound pattern variable only where it is met; constant arguments
    are unified, any other pair of nodes must be equal under ``sub``."""
    while type(a) is Meta and a.name in sub:
        a = sub[a.name]
    while type(b) is Meta and b.name in sub:
        b = sub[b.name]
    if a == b:
        return True
    if type(b) is Meta and type(a) is not Meta:
        a, b = b, a
    if type(a) is Meta:
        if _occurs(a.name, b, sub):
            return False
        sub[a.name] = b
        return True
    if type(a) is Cons and type(b) is Cons:
        return a.same_node(b) and all(_unify(p, q, sub) for p, q in zip(a.args, b.args))
    return _apply_sub(a, sub) == _apply_sub(b, sub)


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
    Rules may have the same name, so a root overlap is reported once per
    pair of rule positions in the theory, not once per pair of names.
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
