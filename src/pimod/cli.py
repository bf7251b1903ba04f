"""Command-line driver.

Exit codes: 0 for success, 1 for any user-level problem (a malformed
command line or budget, syntax errors, failed checks, analyzer
rejections, an exhausted ``--fuel`` budget), 2 when the inverse
translation detects an internal soundness violation — that one is a bug
in the tool or its metatheory, never in the input — and 3 when the input
is too deep or too large for the interpreter (recursion depth or
memory), reported as one ``resource-limit`` record.  Every other failure
that stops a run, a malformed command line included, is one record too.

A reader that closes stdout early (``pimod … | head -1``) ends the run
with exit 1 and no traceback.

Each input item (a judgment, one ``check`` line, a theory file's
signature plus context, a judgments file's assumptions, a morphism)
draws every step on one ``Fuel`` of ``--fuel`` steps.  The ``--trace``
replays of ``decode --term`` and ``roundtrip`` run once the item has its
verdict and draw on the item's own ``Fuel``, so a budget that the trace
exhausts fails the item.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import check_arity_preserving, check_rules_well_formed, erase_type, render_simple
from .corpus import CORPUS_NAMES, load_sorts
from .decode import adequacy_legs, conservative_invert
from .encode import EncodingTheory, expected_dk_type, generate, translate, translate_ctx
from .epts import (
    EptsContext,
    SortSpec,
    elaborate,
    elaborate_context,
    epts_check,
    erase_to_pts,
)
from .errors import (Diagnostic, FuelExhausted, InternalSoundnessError, NotErasable,
                     PimodError, _show)
from .kernel import check, check_context, check_signature
from .morphism import apply_morphism, build_phi, verify_morphism
from .rewrite import BETA, DEFAULT_FUEL, Fuel, check_orthogonal, reduce_trace
from .syntax import (
    EptsFile,
    fresh_names,
    parse_dk_term,
    parse_epts_file,
    parse_morphism,
    parse_pts_term,
    parse_sort_spec_file,
    parse_theory,
    render,
    render_bodies,
    render_morphism,
    render_theory,
)
from .terms import Cons, DkContext, validate_theory


_FORMATS = ("text", "machine-readable")


class Reporter:
    """Serializes results in input order, in either output format."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.errors = 0

    def result(self, kind: str, subject: str, ok: bool,
               detail: str = "", severity: str = "error", **data) -> None:
        """Print one result.  A failure counts toward the exit code.  A ``note``
        is no failure, but its record names its severity and its text
        line carries the ``note`` mark."""
        if not ok and severity == "error":
            self.errors += 1
        note = severity == "note"
        if self.fmt == "machine-readable":
            rec: dict = {"kind": kind, "ok": ok, "subject": subject}
            if detail:
                rec["detail"] = detail
            if not ok or note:
                rec["severity"] = severity
            rec.update(data)
            print(json.dumps(rec, sort_keys=True))
        else:
            mark = "note" if note else "ok  " if ok else "FAIL"
            line = f"{mark}  {kind}  {subject}"
            if detail:
                line += f"  --  {detail}"
            print(line)

    def diagnostic(self, d: Diagnostic, where: str = "") -> None:
        subject = f"{where}:{d.subject}" if where else str(d.subject)
        data = {}
        for k, v in (d.data or {}).items():
            data[k] = v if isinstance(v, (str, int, bool)) else _show(v)
        self.result(d.code, subject, ok=d.severity != "error",
                    detail=d.message, severity=d.severity, **data)

    def trace(self, text: str) -> None:
        print(f"      {text}", file=sys.stderr)


def _read(path: str) -> str:
    try:
        with open(path, newline="") as fh:   # keep the file's own line breaks
            return fh.read()
    except OSError as e:
        raise PimodError(f"cannot read {path}: {e.strerror or e}") from None


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as e:
        raise PimodError(f"cannot write {path}: {e.strerror or e}") from None


def _load_spec(path: str, mode: str) -> tuple[SortSpec, str]:
    sf = parse_sort_spec_file(_read(path), source=path)
    if mode == "finite" or (mode == "auto" and sf.finite is not None):
        if sf.finite is None:
            raise PimodError(f"{path} has no finite tables")
        return sf.finite, "finite"
    if sf.internalized is None:
        raise PimodError(f"{path} has no [internalized] section")
    sf.internalized.table()   # a spec that is not functional or not terminating fails here
    return sf.internalized, "internalized"


def _setup(args) -> tuple[EncodingTheory, EptsContext, EptsFile, list[str], set[str]]:
    """The encoding, the context and the file; and the context's names and
    the constant names that binders avoid, as ``render_theory`` prints them."""
    spec, _ = _load_spec(args.sorts, args.mode)
    enc = generate(spec)
    file = parse_epts_file(_read(args.source), spec, source=args.source)
    ctx = elaborate_context(spec, file.assumes, fuel=args.fuel)
    avoid = {d.name for d in enc.theory.signature}
    return enc, ctx, file, fresh_names(ctx.names, avoid), avoid


# --- subcommands -----------------------------------------------------------------


def _cmd_check_dk(args, rep: Reporter) -> None:
    for path in args.files:
        tf = parse_theory(_read(path), source=path)
        f = Fuel(args.fuel)
        log = [] if args.trace else None
        bad = False
        for d in validate_theory(tf.theory) + check_signature(tf.theory, f, log):
            rep.diagnostic(d, path)
            bad = bad or d.severity == "error"
        if bad:
            continue
        rep.result("theory", path, True,
                   f"{len(tf.theory.signature)} constants, {len(tf.theory.rules)} rules")
        # entries are named as render_theory writes them, in diagnostics and
        # in kernel messages (hints are outside equality); check_context
        # still reads the hints as written, so that it reports a repeated one
        avoid = {d.name for d in tf.theory.signature}
        names = fresh_names(tf.assumes.names, avoid)
        for d in check_context(tf.theory, tf.assumes, f, log, names):
            rep.diagnostic(d, path)
        ctx = DkContext(tuple(zip(names, (ty for _, ty in tf.assumes.entries))))
        for m, a in tf.checks:
            subject = f"{render(m, names, avoid)} : {render(a, names, avoid)}"
            try:
                check(tf.theory, ctx, m, a, Fuel(args.fuel), log)
                rep.result("check", subject, True)
            except (PimodError, FuelExhausted) as e:
                rep.result("check", subject, False, str(e))
        if args.trace:
            for names_, t, ty in log:
                shown = fresh_names(names_, avoid)
                rep.trace(f"{render(t, shown, avoid)} : {render(ty, shown, avoid)}")


def _cmd_check_epts(args, rep: Reporter) -> None:
    spec, mode = _load_spec(args.sorts, args.mode)
    file = parse_epts_file(_read(args.source), spec, source=args.source)
    ctx = elaborate_context(spec, file.assumes, fuel=args.fuel)
    rep.result("context", f"{args.source} [{mode}]", True,
               f"{len(ctx.entries)} assumptions")
    for d in spec.coverage_diagnostics():
        rep.diagnostic(d, args.sorts)
    for j in file.judgments:
        f = Fuel(args.fuel)
        try:
            m = elaborate(spec, ctx, j.term, f)
            a = elaborate(spec, ctx, j.type, f)
            epts_check(spec, ctx, m, a, f)
            rep.result("judgment", j.name, True)
            if args.trace:
                rep.trace(render(m, fresh_names(ctx.names), spec.sorts))
        except (PimodError, FuelExhausted) as e:
            rep.result("judgment", j.name, False, str(e))


def _cmd_encode(args, rep: Reporter) -> None:
    enc, ctx, file, shown, avoid = _setup(args)
    dctx = translate_ctx(enc, ctx, fuel=args.fuel)
    checks = []
    for j in file.judgments:
        f = Fuel(args.fuel)
        m = elaborate(enc.spec, ctx, j.term, f)
        a = elaborate(enc.spec, ctx, j.type, f)
        epts_check(enc.spec, ctx, m, a, f)
        checks.append((translate(enc, m), expected_dk_type(enc, ctx, a, f)))
        if args.trace:
            rep.trace(f"{j.name} -> {render(checks[-1][0], shown, avoid)}")
    stem = Path(args.source).stem + "_" + enc.mode
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tpath = out / f"{stem}_theory.dk"
    jpath = out / f"{stem}_judgments.dk"
    _write(tpath, render_theory(enc.theory))
    _write(jpath, render_theory(enc.theory, dctx, checks))
    rep.result("write", str(tpath), True,
               f"{len(enc.theory.signature)} constants, {len(enc.theory.rules)} rules")
    rep.result("write", str(jpath), True, f"{len(checks)} judgments")


def _cmd_decode(args, rep: Reporter) -> None:
    enc, ctx, file, dk_shown, avoid = _setup(args)
    shown = fresh_names(ctx.names)
    defs = dict(file.definitions)
    if args.term is not None:
        if args.type is None:
            raise PimodError("--term needs --type, the claimed source-level type")
        t = parse_dk_term(args.term, enc.theory, dk_shown, source="<--term>")
        f = Fuel(args.fuel)
        a = elaborate(enc.spec, ctx,
                      parse_pts_term(args.type, enc.spec, shown, defs, "<--type>"), f)
        m = conservative_invert(enc, ctx, t, a, f)
        if args.trace:
            # replayed once the term has checked, so that it normalizes
            _, trail = reduce_trace(enc.theory, t, frozenset({BETA}), f)
            for label, step_t in trail:
                rep.trace(f"--{label}--> {render(step_t, dk_shown, avoid)}")
        rep.result("decode", args.term, True,
                   render(erase_to_pts(m), shown, enc.spec.sorts))
        return
    for j in file.judgments:
        f = Fuel(args.fuel)
        m = elaborate(enc.spec, ctx, j.term, f)
        img = translate(enc, m)
        a = elaborate(enc.spec, ctx, j.type, f)
        back = conservative_invert(enc, ctx, img, a, f)
        ok = back == m
        rep.result("decode", j.name, ok,
                   "translation round-trips" if ok else "decoded to a different term")


_LEG_LABEL = {
    "image-ill-typed": "image well-typed",
    "not-left-inverse": "left inverse",
    "image-not-normal": "normal form preserved",
    "trace-mismatch": "computation mirrored",
}


def _cmd_roundtrip(args, rep: Reporter) -> None:
    enc, ctx, file, shown, avoid = _setup(args)
    for j in file.judgments:
        f = Fuel(args.fuel)
        m = elaborate(enc.spec, ctx, j.term, f)
        for code, d in adequacy_legs(enc, ctx, m, f):
            rep.result("adequacy", f"{j.name}: {_LEG_LABEL[code]}",
                       d is None, d.message if d else "")
        if args.trace:
            img = translate(enc, m)
            _, trail = reduce_trace(enc.theory, img, enc.simulation_labels(), f)
            for label, t in trail:
                rep.trace(f"--{label}--> {render(t, shown, avoid)}")


def _cmd_analyze(args, rep: Reporter) -> None:
    for path in args.files:
        tf = parse_theory(_read(path), source=path)
        diags = (validate_theory(tf.theory)
                 + check_rules_well_formed(tf.theory)
                 + check_arity_preserving(tf.theory))
        seen = set()
        for d in diags:
            key = (d.code, d.subject, d.message)
            # check_orthogonal reports a non-left-linear rule below, naming
            # the repeated variable
            if key in seen or d.code == "non-left-linear":
                continue
            seen.add(key)
            rep.diagnostic(d, path)
        report = check_orthogonal(tf.theory)
        for d in report.problems + report.notes:
            rep.diagnostic(d, path)
        if args.trace:
            for r in tf.theory.rules:
                try:
                    lhs = render_simple(erase_type(tf.theory, Cons(r.head, r.lhs)))
                    rhs = render_simple(erase_type(tf.theory, r.rhs))
                    rep.trace(f"{r.name}: {lhs} vs {rhs}")
                except NotErasable:
                    rep.trace(f"{r.name}: object-level")
        if not any(d.severity == "error" for d in diags) and report.ok:
            rep.result("analyze", path, True,
                       "arity-preserving" + ("" if report.orthogonal
                                             else ", trivial overlaps noted"))


def _verify_and_report(mor, rep: Reporter, subject: str, fuel: int,
                       trace: bool) -> None:
    diags = verify_morphism(mor, fuel=fuel)
    for d in diags:
        rep.diagnostic(d)
    if trace:
        for name, body in render_bodies(mor):
            rep.trace(f"{name} := {body}")
    if not any(d.severity == "error" for d in diags):
        rep.result("morphism", subject, True,
                   f"{len(mor.body)} constants mapped")


def _cmd_morphism(args, rep: Reporter) -> None:
    if args.action == "phi":
        sf = parse_sort_spec_file(_read(args.sorts), source=args.sorts)
        if sf.finite is None or sf.internalized is None:
            raise PimodError(f"{args.sorts} must carry both finite tables and "
                             "an [internalized] section")
        sf.internalized.table()
        phi = build_phi(generate(sf.finite), generate(sf.internalized))
        _verify_and_report(phi, rep, f"phi({args.sorts})", args.fuel, args.trace)
        if args.out:
            _write(Path(args.out), render_morphism(phi))
            rep.result("write", args.out, True)
        return
    src = parse_theory(_read(args.source_theory), source=args.source_theory)
    dst = parse_theory(_read(args.target_theory), source=args.target_theory)
    mor = parse_morphism(_read(args.map), src.theory, dst.theory, source=args.map)
    if args.action == "verify":
        _verify_and_report(mor, rep, args.map, args.fuel, args.trace)
    else:  # apply
        t = parse_dk_term(args.term, src.theory, source="<--term>")
        avoid = {d.name for d in dst.theory.signature}
        rep.result("apply", args.term, True, render(apply_morphism(mor, t), (), avoid))


def _cmd_corpus(args, rep: Reporter) -> None:
    for name in CORPUS_NAMES:
        sf = load_sorts(name)
        modes = [m for m, s in (("finite", sf.finite),
                                ("internalized", sf.internalized)) if s is not None]
        rep.result("corpus", name, True, ", ".join(modes))


# --- argument plumbing ----------------------------------------------------------


class _UsageError(Exception):
    """A malformed command line; the usage is already on stderr."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting 2, the code kept for
    soundness violations.  Subcommand parsers are built from this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _format_of(argv: list[str] | None) -> str:
    """The ``--format`` a command line asks for, read on its own so that a
    usage error elsewhere on the line is reported in that format too."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--format", choices=_FORMATS, default="text")
    try:
        return pre.parse_known_args(argv)[0].format
    except argparse.ArgumentError:
        return "text"


def _budget(flag: int | None) -> int:
    """The step budget: ``--fuel``, else ``$PIMOD_FUEL``, else the default."""
    where = "--fuel" if flag is not None else "PIMOD_FUEL"
    raw = flag if flag is not None else os.environ.get("PIMOD_FUEL", DEFAULT_FUEL)
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        raise PimodError(f"{where} must be a positive integer, got {raw!r}")
    return n


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fuel", type=int, default=None,
                     help="rewrite-step budget (default: $PIMOD_FUEL or 10^6)")
    sub.add_argument("--trace", action="store_true",
                     help="narrate intermediate judgments/reductions on stderr")
    sub.add_argument("--format", choices=_FORMATS,
                     default="text", help="output format")


def _epts_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("sorts", help="sort-specification file")
    sub.add_argument("source", help="judgments file in implicit syntax")
    sub.add_argument("--mode", choices=("auto", "finite", "internalized"),
                     default="auto", help="which half of the sort spec to use")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="pimod",
        description="Encode explicitly-typed pure type systems into a "
                    "rewriting logical framework, and decode them back.")
    subs = ap.add_subparsers(dest="cmd", required=True)

    s = subs.add_parser("check-dk", help="type-check framework theory files")
    s.add_argument("files", nargs="+")
    _common(s)
    s.set_defaults(fn=_cmd_check_dk)

    s = subs.add_parser("check-epts", help="type-check source-level judgments")
    _epts_args(s)
    _common(s)
    s.set_defaults(fn=_cmd_check_epts)

    s = subs.add_parser("encode",
                        help="generate the framework theory and translate judgments")
    _epts_args(s)
    s.add_argument("--out", default=".", help="output directory")
    _common(s)
    s.set_defaults(fn=_cmd_encode)

    s = subs.add_parser("decode", help="invert framework terms back to the source")
    _epts_args(s)
    s.add_argument("--term", help="framework term to invert (surface syntax)")
    s.add_argument("--type", help="source-level type the result should check at")
    _common(s)
    s.set_defaults(fn=_cmd_decode)

    s = subs.add_parser("roundtrip", help="run the adequacy legs on each judgment")
    _epts_args(s)
    _common(s)
    s.set_defaults(fn=_cmd_roundtrip)

    s = subs.add_parser("analyze",
                        help="stratification, arity and overlap analysis of theories")
    s.add_argument("files", nargs="+")
    _common(s)
    s.set_defaults(fn=_cmd_analyze)

    s = subs.add_parser("morphism", help="build, verify and apply theory morphisms")
    acts = s.add_subparsers(dest="action", required=True)
    a = acts.add_parser("phi", help="the finite-to-internalized interpretation")
    a.add_argument("sorts")
    a.add_argument("--out", help="write the morphism to a file")
    _common(a)
    a.set_defaults(fn=_cmd_morphism)
    for act in ("verify", "apply"):
        a = acts.add_parser(act)
        a.add_argument("source_theory")
        a.add_argument("target_theory")
        a.add_argument("map")
        if act == "apply":
            a.add_argument("--term", required=True)
        _common(a)
        a.set_defaults(fn=_cmd_morphism)

    s = subs.add_parser("corpus", help="list the bundled example systems")
    _common(s)
    s.set_defaults(fn=_cmd_corpus)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to the null
        # device, so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        Reporter(_format_of(argv)).result("usage-error", "", False, str(e))
        return 1
    rep = Reporter(args.format)
    try:
        args.fuel = _budget(args.fuel)
        args.fn(args, rep)
    except InternalSoundnessError as e:
        print("internal soundness violation -- this is a bug, please report it",
              file=sys.stderr)
        print(f"  {type(e).__name__}: {e}", file=sys.stderr)
        if rep.fmt == "machine-readable":
            rep.result("internal-soundness-violation", "", False,
                       f"{type(e).__name__}: {e}")
        return 2
    except (PimodError, FuelExhausted) as e:
        rep.result(type(e).__name__, "", False, str(e))
        return 1
    except (RecursionError, MemoryError) as e:
        rep.result("resource-limit", "", False,
                   f"{type(e).__name__}: the input is nested too deeply or is "
                   "too large for this process")
        return 3
    return 1 if rep.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
