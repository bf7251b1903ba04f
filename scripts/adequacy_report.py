#!/usr/bin/env python3
"""Adequacy report over the bundled corpus.

For every judgment of every bundled system (under each encoding mode its
sort file provides) this runs the full pipeline -- translate, kernel-check
the image, invert, simulate the computation, conservatively invert a few
beta-expanded variants -- and prints one line per judgment with timings.

Usage:
    python3 scripts/adequacy_report.py [--variants N] [--seed S] [--fuel F]
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pimod.corpus import load_cases  # noqa: E402
from pimod.decode import adequacy_roundtrip, conservative_invert, invert  # noqa: E402
from pimod.encode import expected_dk_type, generate, translate, translate_ctx  # noqa: E402
from pimod.epts import elaborate, elaborate_context, epts_reduce  # noqa: E402
from pimod.kernel import check as dk_check, infer as dk_infer  # noqa: E402
from pimod.rewrite import DEFAULT_FUEL  # noqa: E402
from pimod.terms import App, Lam, Var  # noqa: E402


def wrap_root(theory, ctx, t, times, fuel):
    """Identity beta-expansions at the root: ``(lam w : T. w) t``, iterated,
    each type inferred on a budget of ``fuel`` steps."""
    for _ in range(times):
        t = App(Lam("w", dk_infer(theory, ctx, t, fuel), Var(0)), t)
    return t


def positive(text):
    """A step budget: argparse reports anything else as a usage error."""
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError("fuel budget must be positive")
    return n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--variants", type=int, default=3,
                    help="beta-expanded variants per judgment (default 3)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--fuel", type=positive, default=DEFAULT_FUEL)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)

    header = f"{'judgment':<34} {'check':>8} {'invert':>7} {'steps':>5} {'variants':>8}"
    print(header)
    print("-" * len(header))
    failures = 0
    for case in load_cases():
        enc = generate(case.spec)
        ctx = elaborate_context(case.spec, case.file.assumes, fuel=args.fuel)
        dctx = translate_ctx(enc, ctx, fuel=args.fuel)
        for j in case.file.judgments:
            label = f"{case.label}/{j.name}"
            try:
                m = elaborate(case.spec, ctx, j.term, fuel=args.fuel)
                a = elaborate(case.spec, ctx, j.type, fuel=args.fuel)
                img = translate(enc, m)

                t0 = time.perf_counter()
                dk_check(enc.theory, dctx, img,
                         expected_dk_type(enc, ctx, a, fuel=args.fuel), args.fuel)
                check_ms = (time.perf_counter() - t0) * 1000

                ok_inv = invert(enc, img) == m

                steps = len(epts_reduce(enc.spec, m, args.fuel)[1])

                ok_var = 0
                for k in range(args.variants):
                    fat = wrap_root(enc.theory, dctx, img, 1 + rng.randrange(2), args.fuel)
                    if conservative_invert(enc, ctx, fat, a, fuel=args.fuel) == m:
                        ok_var += 1

                diags = adequacy_roundtrip(enc, ctx, m, fuel=args.fuel)
                ok = ok_inv and ok_var == args.variants and not diags
                print(f"{label:<34} {check_ms:>6.1f}ms "
                      f"{'yes' if ok_inv else 'NO':>7} {steps:>5} "
                      f"{ok_var:>5}/{args.variants}"
                      + ("" if not diags else
                         "   " + "; ".join(d.code for d in diags)))
                failures += 0 if ok else 1
            except Exception as e:
                print(f"{label:<34} ERROR: {type(e).__name__}: {e}")
                failures += 1
    print("-" * len(header))
    print("all judgments adequate" if not failures
          else f"{failures} judgment(s) FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
