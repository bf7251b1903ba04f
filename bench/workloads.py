"""Seeded generators for the three benchmark workloads.

Each generator turns a seed into a *payload*: pimod source text plus the
answers the benchmark expects, worked out here from the arithmetic or the
shape of the input and never by pimod.  The payload carries no seed, so
the worker process, and pimod inside it, only ever sees the text.

The seed picks names and order; the sizes of a batch are fixed
(every batch of a workload holds the same sizes), so runs with different
seeds do the same amount of work and their figures stay comparable.
NOTES.md says why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import random
import string

# System F, finite tables plus its internalized sort algebra.
SYSTEMF_SORTS = """\
[sorts]
Type Kind
[axioms]
Type : Kind
[rules]
(Type, Type) : Type
(Kind, Type) : Type
[internalized]
constant type : Sort.
constant kind : Sort.
rule "ax-type" Ax(type) --> kind.
rule "ru-tt" Ru(type, type) --> type.
rule "ru-kt" Ru(kind, type) --> type.
Type := type.
Kind := kind.
"""

CHURCH_PRELUDE = """\
assume C : Type.
def nat : Type := Pi A : Type. (A -> A) -> A -> A.
def add : nat -> nat -> nat :=
  lam m : nat. lam n : nat.
  lam A : Type. lam f : A -> A. lam x : A. m A f (n A f x).
"""

DEEP_PRELUDE = "assume C : Type.\n"

# church_sum: sums of k in {2, 3} numerals of size n in [2, 6].  Every
# batch holds the same size tuples in each mode, each size once at each
# position of each pattern.  Two thirds of the sums add two numerals, so
# the median verdict lies inside the cluster of internalized two-numeral
# sums and the p90 inside that of internalized three-numeral sums, never
# in the gap between two clusters, where noise would move it most.
CHURCH_SIZES = (2, 3, 4, 5, 6)
CHURCH_PATTERNS = ((0, 1), (0, 2), (0, 1, 3))
CHURCH_TUPLES = tuple(
    tuple(CHURCH_SIZES[(i + step) % len(CHURCH_SIZES)] for step in steps)
    for steps in CHURCH_PATTERNS for i in range(len(CHURCH_SIZES)))

# deep_binders: depths 4..32, each twice a batch, once returning the
# outermost variable and once the innermost.  The variable's position
# moves a verdict's cost, so it is fixed, not drawn from the seed.
# Elaboration grows cubically with depth (177 s at 400), which is what
# caps the range.
DEEP_DEPTHS = tuple(range(4, 33))

# theory_tower: one tower per level count, N^2 product rules each.
TOWER_LEVELS = tuple(range(2, 13))

# Overlap notes check_orthogonal must report.  The z/s/Ru algebra has
# exactly one overlap: ru-zl and ru-zr both match Ru(z, z), and both sides
# rewrite it to z, so the critical pair is trivial.  The finite tables and
# System F's algebra have none.
TOWER_NOTES = {"finite": 0, "internalized": 1}
BUNDLED_NOTES = {
    "systemf/finite": 0, "systemf/internalized": 0,
    "coc/finite": 0, "typetype/finite": 0,
    "mltt/finite": 0, "mltt/internalized": 1,
}
BUNDLED_MORPHISMS = ("systemf", "mltt")
# bad_traditional.dk decodes a code into a real product; the analyzer
# must reject its rule for growing an arrow.
BAD_THEORY = {"file": "bad_traditional.dk", "code": "arity-violation",
              "subject": "el-prod"}


# Three-letter names that would clash with a keyword or a definition.
RESERVED = frozenset({"lam", "def", "map", "add", "nat"})


def _names(rng: random.Random, k: int) -> list[str]:
    """``k`` distinct random identifiers of three letters or digits."""
    out: list[str] = []
    while len(out) < k:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(2))
        if name not in RESERVED and name not in out:
            out.append(name)
    return out


def church_numeral(rng: random.Random, n: int) -> str:
    a, f, x = _names(rng, 3)
    body = x
    for _ in range(n):
        body = f"{f} ({body})"
    return f"(lam {a} : Type. lam {f} : {a} -> {a}. lam {x} : {a}. {body})"


def church_sum(seed: int) -> dict:
    rng = random.Random(seed)
    items = []
    for mode in ("finite", "internalized"):
        for ns in CHURCH_TUPLES:
            term = church_numeral(rng, ns[0])
            for n in ns[1:]:
                term = f"add ({term}) {church_numeral(rng, n)}"
            items.append({"mode": mode, "term": term, "type": "nat", "sum": sum(ns)})
    rng.shuffle(items)
    return {"workload": "church_sum", "sorts": SYSTEMF_SORTS,
            "prelude": CHURCH_PRELUDE, "items": items}


def deep_binders(seed: int) -> dict:
    rng = random.Random(seed)
    items = []
    for d in DEEP_DEPTHS:
        for var in (0, d):
            stem = "x" + _names(rng, 1)[0]
            binders = "".join(f"lam {stem}{i} : C. " for i in range(d + 1))
            items.append({"term": f"{binders}{stem}{var}",
                          "type": " -> ".join(["C"] * (d + 2)),
                          "depth": d, "var": var})
    rng.shuffle(items)
    return {"workload": "deep_binders", "sorts": SYSTEMF_SORTS,
            "prelude": DEEP_PRELUDE, "items": items}


def tower_sorts(names: list[str]) -> str:
    """N+1 sorts, N axioms and N^2 rules (i, j) : max(i, j) below the top,
    with the zero/successor/max internalization of mltt.sorts."""
    n = len(names) - 1
    lines = ["[sorts]", " ".join(names), "[axioms]"]
    lines += [f"{names[i]} : {names[i + 1]}" for i in range(n)]
    lines += ["[rules]"]
    lines += [f"({names[i]}, {names[j]}) : {names[max(i, j)]}"
              for i in range(n) for j in range(n)]
    lines += ["[internalized]",
              "constant z : Sort.",
              "constant s (n : Sort) : Sort.",
              'rule "ax" Ax(n) --> s(n).',
              'rule "ru-zl" Ru(z, n) --> n.',
              'rule "ru-zr" Ru(n, z) --> n.',
              'rule "ru-ss" Ru(s(m), s(n)) --> s(Ru(m, n)).']
    for i, name in enumerate(names):
        lines.append(f"{name} := {'s(' * i}z{')' * i}.")
    return "\n".join(lines) + "\n"


def tower_judgments(names: list[str]) -> str:
    """One judgment per level below the top two, alternately a polymorphic
    identity and a function whose body is a redex at the sort pair
    (i+1, i+1).  Kept to one a level so that theories and morphisms are
    more than a tenth of the verdicts and set the p90."""
    out = []
    for i, s in enumerate(names[:-2]):
        if i % 2 == 0:
            out.append(f"def id_{s} : Pi A : {s}. A -> A := lam A : {s}. lam x : A. x.")
        else:
            out.append(f"def app_{s} : {s} -> {s} := lam B : {s}. (lam A : {s}. A) B.")
    return "\n".join(out) + "\n"


def theory_tower(seed: int) -> dict:
    rng = random.Random(seed)
    towers = []
    for levels in TOWER_LEVELS:
        stem = _names(rng, 1)[0]
        names = [f"{stem}{i}" for i in range(levels + 1)]
        towers.append({"levels": levels, "sorts": tower_sorts(names),
                       "judgments": tower_judgments(names),
                       "notes": TOWER_NOTES})
    return {"workload": "theory_tower", "towers": towers,
            "bundled": {"notes": BUNDLED_NOTES,
                        "morphisms": list(BUNDLED_MORPHISMS),
                        "bad": BAD_THEORY}}


WORKLOADS = {
    "church_sum": church_sum,
    "deep_binders": deep_binders,
    "theory_tower": theory_tower,
}


def payload(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](seed)
