#!/usr/bin/env python3
"""Time the pipeline stages on one term of growing binder depth.

For each N, the term is ``lam C : Type. lam x1 : C. ... lam xN : C. x1``
in finite System F (the bundled ``systemf.sorts``), in the empty
context.  It is elaborated, its elaboration translated, the image
checked by the kernel against the image of its type, and the image
conservatively inverted, and the erasure witness is checked: the image
is erased to an untyped lambda term, which must be simply typable at the
erasure of the image's type.  One JSON line per N gives the seconds each
of those five stages took, the number of nodes of the image as a tree
(``image_nodes``) and as distinct objects (``image_distinct``: the image
is maximally shared, one object per distinct subterm), the distinct
objects of the source term the inversion recovers
(``recovered_distinct``: inversion keeps the image's sharing), and the
fuel ticks of the kernel check and of the inversion, whose own kernel
check is among them.  The type the image is checked against and the
erased signature are worked out outside the timed stages.

The stages recurse once per binder, so the recursion limit is raised
to 40 frames per binder of the largest N.

Usage:
    python3 scripts/depth_scaling.py N [N ...]
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pimod.analysis import (erase_context, erase_signature, erase_term,  # noqa: E402
                            erase_type, pi_context, stlc_check)
from pimod.corpus import load_sorts  # noqa: E402
from pimod.decode import conservative_invert  # noqa: E402
from pimod.encode import expected_dk_type, generate, translate, translate_ctx  # noqa: E402
from pimod.epts import EptsContext, PLam, PSort, PVar, elaborate, epts_infer  # noqa: E402
from pimod.kernel import check  # noqa: E402
from pimod.rewrite import Fuel  # noqa: E402
from pimod.terms import subterms  # noqa: E402


def depth_term(n: int):
    """``lam C : Type. lam x1 : C. ... lam xn : C. x1``."""
    t = PVar(n - 1)
    for i in range(n, 0, -1):
        t = PLam(f"x{i}", PVar(i - 1), t)
    return PLam("C", PSort("Type"), t)


def distinct_nodes(t) -> int:
    """The number of distinct node objects in ``t``."""
    seen, stack = set(), [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            stack.extend(k for k, _ in u.children())
    return len(seen)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, round(time.perf_counter() - start, 4)


def witness(theory, sig, ectx, img, want) -> bool:
    """Is the erasure of ``img`` simply typable at the erasure of ``want``?"""
    pis: set = set()
    erased = erase_term(theory, img, pis)
    return stlc_check({**sig, **pi_context(pis)}, ectx, erased, erase_type(theory, want))


def measure(enc, n: int) -> dict:
    ctx = EptsContext()
    m, elaborate_s = timed(elaborate, enc.spec, ctx, depth_term(n))
    a = epts_infer(enc.spec, ctx, m)
    img, translate_s = timed(translate, enc, m)
    dctx, want = translate_ctx(enc, ctx), expected_dk_type(enc, ctx, a)
    fuel = Fuel()
    _, check_s = timed(check, enc.theory, dctx, img, want, fuel)
    invert_fuel = Fuel()
    back, invert_s = timed(conservative_invert, enc, ctx, img, a, invert_fuel)
    if back != m:
        raise SystemExit(f"depth {n}: the image inverts to a different term")
    typable, erase_s = timed(witness, enc.theory, erase_signature(enc.theory),
                             erase_context(enc.theory, dctx), img, want)
    if not typable:
        raise SystemExit(f"depth {n}: the erasure of the image is not simply typable")
    return {"n": n, "elaborate_s": elaborate_s, "translate_s": translate_s,
            "check_s": check_s, "invert_s": invert_s, "erase_s": erase_s,
            "image_nodes": sum(1 for _ in subterms(img)),
            "image_distinct": distinct_nodes(img),
            "recovered_distinct": distinct_nodes(back),
            "check_ticks": fuel.limit - fuel.remaining,
            "invert_ticks": invert_fuel.limit - invert_fuel.remaining}


def positive(text):
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError("a depth must be positive")
    return n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("depths", type=positive, nargs="+", metavar="N",
                    help="binder depths to measure")
    args = ap.parse_args(argv)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 40 * max(args.depths)))
    enc = generate(load_sorts("systemf").finite)
    for n in args.depths:
        print(json.dumps(measure(enc, n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
