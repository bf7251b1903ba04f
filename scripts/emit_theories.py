#!/usr/bin/env python3
"""Generate framework theories for every bundled system and validate them.

Writes ``<name>_<mode>_theory.dk`` and ``<name>_<mode>_judgments.dk`` for
each corpus system and encoding mode, then runs the whole battery every
generated theory is supposed to satisfy: structural validation, kernel
checking of the signature, rule well-formedness, arity preservation and
the overlap check.

Usage:
    python3 scripts/emit_theories.py [--out DIR]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pimod.analysis import check_arity_preserving, check_rules_well_formed  # noqa: E402
from pimod.corpus import load_cases  # noqa: E402
from pimod.encode import expected_dk_type, generate, translate, translate_ctx  # noqa: E402
from pimod.epts import elaborate, elaborate_context  # noqa: E402
from pimod.kernel import check_signature  # noqa: E402
from pimod.rewrite import check_orthogonal  # noqa: E402
from pimod.syntax import render_theory  # noqa: E402
from pimod.terms import validate_theory  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="generated", help="output directory")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failures = 0
    for case in load_cases():
        enc = generate(case.spec)
        ctx = elaborate_context(case.spec, case.file.assumes)
        dctx = translate_ctx(enc, ctx)
        checks = []
        for j in case.file.judgments:
            m = elaborate(case.spec, ctx, j.term)
            a = elaborate(case.spec, ctx, j.type)
            checks.append((translate(enc, m), expected_dk_type(enc, ctx, a)))

        stem = f"{case.corpus}_{case.mode}"
        tpath = out / f"{stem}_theory.dk"
        jpath = out / f"{stem}_judgments.dk"
        tpath.write_text(render_theory(enc.theory))
        jpath.write_text(render_theory(enc.theory, dctx, checks))

        diags = (validate_theory(enc.theory)
                 + check_signature(enc.theory)
                 + check_rules_well_formed(enc.theory)
                 + check_arity_preserving(enc.theory))
        report = check_orthogonal(enc.theory)
        problems = [d for d in diags if d.severity == "error"] + report.problems
        verdict = "ok" if not problems else "FAILED"
        notes = f", {len(report.notes)} trivial overlap(s)" if report.notes else ""
        print(f"{verdict:>6}  {tpath}  "
              f"({len(enc.theory.signature)} constants, "
              f"{len(enc.theory.rules)} rules, {len(checks)} judgments{notes})")
        for d in problems:
            print(f"        {d}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
