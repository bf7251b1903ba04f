#!/usr/bin/env python3
"""Run the command-line driver over a fixed matrix of corpus commands.

For every bundled system under each encoding mode its sort file
provides: ``check-epts``, ``roundtrip`` and ``decode``, each with
``--trace`` and with ``--format machine-readable``, and ``encode --trace
--out``.  Then ``morphism phi --trace --out`` for each system with both
modes, one ``decode --term`` run with ``--trace``,
``scripts/emit_theories.py``, and ``analyze --trace`` and ``check-dk
--trace`` on every emitted theory and on ``bad_traditional.dk``.  With
System F in the matrix, the cases past the corpus follow: ``analyze
--trace`` and ``check-dk --trace`` on four small theories, two
internalized ``decode --term`` runs, and ``roundtrip`` of System F
numerals nested 200 and 600 deep in both modes.  With MLTT in the
matrix, ``check-epts`` of a file that leans on the top sort of
``mltt.sorts`` follows, internalized (plain and machine-readable) and
finite.  Last, with System F, four runs that stop at a parse error:
``check-dk`` of a theory with an unterminated rule name, and
``check-epts`` of a source file with a stray ``$``, of a sort file
with a syntax error inside ``[internalized]``, and of one whose
``[internalized]`` section holds a lone carriage return before its
syntax error.  Then, with System F, the commands no run above reaches:
``morphism verify`` and ``morphism apply --term u@Type`` of the
interpretation written by ``morphism phi``, between the two encoded
theories written by ``encode``; ``corpus``; an unknown subcommand, plain
and machine-readable; and ``roundtrip`` with ``--fuel 0``, a usage of
the budget that is rejected, and with ``--fuel 5``, a budget that runs
out.  Last, with System F, ``decode --term`` of an image whose first
binder is hinted ``Type``, the name of a sort, and ``roundtrip --trace``
of a judgment with a binder hinted ``u@Type``, the name of a constant of
the finite encoding.  Then three runs whose input names something after
a constant: ``decode --term --trace`` over an assumption named
``u@Type``, which the term names ``u@Type'`` as the traces print it,
``morphism apply`` of a term with a binder hinted ``type``, a constant
of the target theory, and ``check-dk --trace`` of a theory that assumes
a variable named after one of its constants.  Last, ``check-epts
--mode internalized --fuel 100`` of ``systemf.epts`` over two variants
of ``systemf.sorts``: one with a second rule for ``Ru(type, type)``, and
one whose rule ``Ru(x, y) --> Ru(x, y)`` replaces ``ru-tt``.  The inputs
of these cases are written to ``OUT_DIR/cases/``.

Every run goes in-process through ``pimod.cli.main`` (or the script's
``main``), with the current directory set to OUT_DIR.  Run number N
leaves its command line, stdout, stderr and exit code in
``OUT_DIR/runs/N-<command>/``, and the files it writes under
``OUT_DIR/out/``.  The inputs are first copied to the paths they have in
the checkout (``OUT_DIR/src/pimod/corpus/``), so the output shows the
same relative paths as a run from the checkout root and never an
absolute one.  Two OUT_DIRs therefore compare with ``diff -r``: the diff
is empty when the two checkouts behave the same.  To compare with
another commit, copy this script into that checkout and run it there.

``OUT_DIR/digest.sha256`` sums the matrix up in one line per run: the
run number, the command line as JSON, the exit code, and one SHA-256
over the run's stdout, its stderr and each file it wrote under
``OUT_DIR/out/`` (with the file's path).  ``tests/golden/cli_matrix.sha256``
is this file for the checked-in code; a change that alters output on
purpose regenerates it by running the script and copying the digest.

Usage:
    python3 scripts/cli_matrix.py OUT_DIR
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pimod.cli import main as pimod_main  # noqa: E402
from pimod.corpus import CORPUS_NAMES, load_sorts  # noqa: E402

CORPUS = Path("src/pimod/corpus")
DECODE_TERM = "(lam w : U@Type. w) ((lam w : U@Type. w) C)"

# Cases past the corpus, appended to the matrix when it runs System F.
# Their inputs are written to OUT_DIR/cases/.  Theories for ``analyze``
# and ``check-dk``:
CASE_THEORIES = {
    # two rules share the name "x"; both are still compared with "y"
    "shared_names.dk": (
        "constant A : TYPE.\nconstant a : A.\nconstant b : A.\nconstant f (x : A) : A.\n"
        'rule "x" f(a) --> a.\nrule "y" f(X) --> X.\nrule "x" f(b) --> a.\n'),
    # `ok` type-checks only through the non-linear rule, `bad` not at all
    "nonlinear.dk": (
        "constant T : TYPE.\nconstant a : T.\nconstant b : T.\nconstant N : TYPE.\n"
        "constant eq (x : T, y : T) : TYPE.\n"
        'rule "refl" eq(x, x) --> N.\n'
        "constant P (m : N) : TYPE.\nconstant p : eq(a, a).\nconstant q : eq(a, b).\n"
        "constant ok : P(p).\nconstant bad : P(q).\n"),
    # a rule that does not preserve types, which nothing checks yet
    "ill_typed_rule.dk": (
        "constant Nat : TYPE.\nconstant Bool : TYPE.\nconstant tt : Bool.\n"
        'constant f (n : Nat) : Nat.\nrule "bad" f(n) --> tt.\n'),
    # unifying the two left-hand sides asks for y := y z
    "cyclic.dk": (
        "constant A : TYPE. constant c : A. constant h (x : A, y : A) : A. "
        'rule "r1" h(x, x) --> x. rule "r2" h(y z, y) --> c.\n'),
}
# internalized System F terms whose sort arguments name sorts only after
# evaluation, with the source types to decode them at
CASE_TERMS = [
    ("Prod(Ru(type,type), type, C, lam x : El(Ru(type,type), C). C)", "Type"),
    ("abs(Ru(type,type), type, C, lam x : El(type, C). C, lam x : El(Ru(type, type), C). x)",
     "C -> C"),
]
# the finite System F image of `lam A : Type. lam x : A. lam B : Type. x`
# with its first binder hinted `Type`, the name of a sort, and its type
SHADOW_TERM = (
    "abs@Kind@Type(u@Type, lam Type : El@Kind(u@Type). Prod@Type@Type(Type, "
    "lam x : El@Type(Type). Prod@Kind@Type(u@Type, lam B : El@Kind(u@Type). Type)), "
    "lam Type : El@Kind(u@Type). abs@Type@Type(Type, lam x : El@Type(Type). "
    "Prod@Kind@Type(u@Type, lam B : El@Kind(u@Type). Type), lam x : El@Type(Type). "
    "abs@Kind@Type(u@Type, lam B : El@Kind(u@Type). Type, "
    "lam B : El@Kind(u@Type). x)))",
    "Pi A : Type. A -> Pi B : Type. A")
# a System F judgment with a binder hinted `u@Type`, the name of a
# constant of the finite encoding, which `roundtrip --trace` prints
SHADOW_BINDER = ("def f : Pi A : Type. Pi B : Type. A -> A := "
                 "(lam g : Pi A : Type. Pi B : Type. A -> A. g) "
                 "(lam u@Type : Type. lam B : Type. lam x : u@Type. x).\n")
# a System F context whose first entry is named after a constant of the
# finite encoding, a term over it that names the entry as `--trace`
# prints it, and its source type
SHADOW_CONTEXT = ("assume u@Type : Type.\nassume c : u@Type.\n",
                  "(lam w : El@Type(u@Type'). w) c", "u@Type")
# a finite System F term with a binder hinted `type`, a constant of the
# internalized encoding that `morphism apply` maps it into
SHADOW_APPLY = "lam type : U@Type. El@Type(type)"
# a theory that assumes a variable named after one of its constants
SHADOW_CONSTANT = "constant N : TYPE.\nconstant z : N.\nassume N : TYPE.\ncheck z : N.\n"
# nesting depths of System F numerals under `roundtrip`: one well inside
# the stack and one far past it
NUMERAL_DEPTHS = (200, 600)
# MLTT judgments past its finite ceiling: `3` is a sort with no axiom and
# no rules there, and its internalized axiom has no declared name
TOP_SORT = ("assume A : 2.\ndef k : 3 -> 3 := lam x : 3. x.\n"
            "def j : 2 -> 2 := lam x : 2. x.\n")
# System F's sort file with a rule for Ru(type, type) added or replaced:
# a second value makes the spec not functional, and a rule that rewrites
# every Ru application to itself makes it not terminate
RU_TT = 'rule "ru-tt" Ru(type, type) --> type.\n'
BAD_SORTS = {
    "ru_tt2.sorts": RU_TT + 'rule "ru-tt2" Ru(type, type) --> kind.\n',
    "loop.sorts": 'rule "loop" Ru(x, y) --> Ru(x, y).\n',
}
# Files that fail to parse: a rule name without its closing quote, a
# character outside the token language, and two sort files with a syntax
# error in their [internalized] section, lines below the section header:
# the second one's line holds a lone carriage return before the error
PARSE_ERRORS = {
    "unterminated.dk": 'constant A : TYPE.\nrule "id A --> A.\n',
    "dollar.epts": "assume C : Type.\ndef id : C -> C := lam x : C. $x.\n",
    "bad_internalized.sorts": (
        "[sorts]\nType Kind\n[axioms]\nType : Kind\n[rules]\n(Type, Type) : Type\n\n"
        "[internalized]\nconstant type : Sort.\nType := type.\nKind := type type ).\n"),
    "cr_internalized.sorts": "[sorts]\nA\n[internalized]\nconstant a : Sort.\rB := a a ).\n",
}


def emit_theories_main():
    spec = importlib.util.spec_from_file_location(
        "emit_theories", ROOT / "scripts" / "emit_theories.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def written_files() -> dict[str, bytes]:
    """Every file under ``out/`` in the current directory, by path."""
    return {str(p): p.read_bytes() for p in sorted(Path("out").rglob("*")) if p.is_file()}


def run_digest(stdout: str, stderr: str, files: dict[str, bytes]) -> str:
    """One SHA-256 over a run's output streams and the files it wrote,
    each part framed by its name and length."""
    h = hashlib.sha256()
    parts = [("stdout", stdout.encode()), ("stderr", stderr.encode())]
    for name, data in parts + sorted(files.items()):
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def record(n: int, label: str, fn, argv: list[str]) -> None:
    """Run ``fn(argv)`` as run number ``n`` and keep what it prints and
    returns in ``runs/<n>-<label>/`` under the current directory, and
    its line in ``digest.sha256``."""
    before = written_files()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(fn(argv))
        except (Exception, SystemExit) as e:  # an outcome to compare, not a stop
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            code = "uncaught exception"
    run = Path("runs") / f"{n:03d}-{label}"
    run.mkdir(parents=True)
    (run / "argv").write_text(json.dumps(argv) + "\n")
    (run / "stdout").write_text(stdout.getvalue())
    (run / "stderr").write_text(stderr.getvalue())
    (run / "exit").write_text(code + "\n")
    written = {p: data for p, data in written_files().items() if before.get(p) != data}
    digest = run_digest(stdout.getvalue(), stderr.getvalue(), written)
    with open("digest.sha256", "a") as out:
        out.write(f"{n:03d} {json.dumps(argv)} {code} {digest}\n")


def corpus_commands(systems) -> list[list[str]]:
    """The command lines that read only the corpus, in run order."""
    runs = []
    for name in systems:
        sf = load_sorts(name)
        sorts, epts = str(CORPUS / f"{name}.sorts"), str(CORPUS / f"{name}.epts")
        for mode, spec in (("finite", sf.finite), ("internalized", sf.internalized)):
            if spec is None:
                continue
            for cmd in ("check-epts", "roundtrip", "decode"):
                for flags in (["--trace"], ["--format", "machine-readable"]):
                    runs.append([cmd, sorts, epts, "--mode", mode] + flags)
            runs.append(["encode", sorts, epts, "--mode", mode, "--trace",
                         "--out", "out/encode"])
        if sf.finite is not None and sf.internalized is not None:
            runs.append(["morphism", "phi", sorts, "--trace",
                         "--out", f"out/phi/{name}.map"])
    if "systemf" in systems:
        runs.append(["decode", str(CORPUS / "systemf.sorts"), str(CORPUS / "systemf.epts"),
                     "--mode", "finite", "--term", DECODE_TERM, "--type", "Type",
                     "--trace"])
    return runs


def numeral(depth: int) -> str:
    """A source file defining a Church numeral with ``depth`` nested ``f``."""
    body = "x"
    for _ in range(depth):
        body = f"f ({body})"
    return ("def nat : Type := Pi A : Type. (A -> A) -> A -> A.\n"
            f"def big : nat := lam A : Type. lam f : A -> A. lam x : A. {body}.\n")


def case_commands(cases: Path, systems) -> list[list[str]]:
    """Write the inputs of the cases past the corpus for ``systems``
    under ``cases`` and return their command lines, in run order."""
    cases.mkdir()
    runs = []
    if "systemf" in systems:
        runs += systemf_cases(cases)
    if "mltt" in systems:
        (cases / "top_sort.epts").write_text(TOP_SORT)
        argv = ["check-epts", str(CORPUS / "mltt.sorts"), "cases/top_sort.epts", "--mode"]
        runs += [argv + ["internalized"],
                 argv + ["internalized", "--format", "machine-readable"],
                 argv + ["finite"]]
    if "systemf" in systems:
        for name, text in PARSE_ERRORS.items():
            (cases / name).write_text(text)
        runs += [["check-dk", "cases/unterminated.dk"],
                 ["check-epts", str(CORPUS / "systemf.sorts"), "cases/dollar.epts"],
                 ["check-epts", "cases/bad_internalized.sorts", str(CORPUS / "systemf.epts")],
                 ["check-epts", "cases/cr_internalized.sorts", str(CORPUS / "systemf.epts")]]
        runs += remaining_commands()
        term, type_ = SHADOW_TERM
        runs.append(["decode", str(CORPUS / "systemf.sorts"), str(CORPUS / "systemf.epts"),
                     "--mode", "finite", "--term", term, "--type", type_])
        (cases / "shadow_binder.epts").write_text(SHADOW_BINDER)
        runs.append(["roundtrip", str(CORPUS / "systemf.sorts"), "cases/shadow_binder.epts",
                     "--mode", "finite", "--trace"])
        runs += shadow_commands(cases)
        systemf = (ROOT / CORPUS / "systemf.sorts").read_text()
        for name, rule in BAD_SORTS.items():
            (cases / name).write_text(systemf.replace(RU_TT, rule))
            runs.append(["check-epts", f"cases/{name}", str(CORPUS / "systemf.epts"),
                         "--mode", "internalized", "--fuel", "100"])
    return runs


def shadow_commands(cases: Path) -> list[list[str]]:
    """Write the inputs of the three System F runs whose input names
    something after a constant under ``cases`` and return their command
    lines, in run order.  The second reads the theories and the
    interpretation that earlier runs wrote."""
    text, term, type_ = SHADOW_CONTEXT
    (cases / "shadow_context.epts").write_text(text)
    (cases / "shadow_constant.dk").write_text(SHADOW_CONSTANT)
    theories = [f"out/encode/systemf_{mode}_theory.dk" for mode in ("finite", "internalized")]
    return [["decode", str(CORPUS / "systemf.sorts"), "cases/shadow_context.epts",
             "--mode", "finite", "--term", term, "--type", type_, "--trace"],
            ["morphism", "apply", *theories, "out/phi/systemf.map", "--term", SHADOW_APPLY],
            ["check-dk", "cases/shadow_constant.dk", "--trace"]]


def remaining_commands() -> list[list[str]]:
    """The System F command lines for the subcommands and the budget
    errors that no other run reaches, in run order.  They read the
    theories and the interpretation that earlier runs wrote."""
    theories = [f"out/encode/systemf_{mode}_theory.dk" for mode in ("finite", "internalized")]
    sorts, epts = str(CORPUS / "systemf.sorts"), str(CORPUS / "systemf.epts")
    return [["morphism", "verify", *theories, "out/phi/systemf.map"],
            ["morphism", "apply", *theories, "out/phi/systemf.map", "--term", "u@Type"],
            ["corpus"],
            ["frobnicate"],
            ["frobnicate", "--format", "machine-readable"],
            ["roundtrip", sorts, epts, "--fuel", "0"],
            ["roundtrip", sorts, epts, "--fuel", "5"]]


def systemf_cases(cases: Path) -> list[list[str]]:
    """Write the System F cases under ``cases`` and return their command
    lines, in run order."""
    runs = []
    for name, text in CASE_THEORIES.items():
        (cases / name).write_text(text)
        runs += [[cmd, f"cases/{name}", "--trace"] for cmd in ("analyze", "check-dk")]
    sorts, epts = str(CORPUS / "systemf.sorts"), str(CORPUS / "systemf.epts")
    for term, type_ in CASE_TERMS:
        runs.append(["decode", sorts, epts, "--mode", "internalized",
                     "--term", term, "--type", type_])
    for depth in NUMERAL_DEPTHS:
        (cases / f"numeral{depth}.epts").write_text(numeral(depth))
        for mode in ("finite", "internalized"):
            runs.append(["roundtrip", sorts, f"cases/numeral{depth}.epts", "--mode", mode])
    return runs


def run_matrix(out: Path, systems=CORPUS_NAMES) -> int:
    """Run the matrix for ``systems`` into ``out``, a new or empty
    directory; returns the number of runs."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    (out / CORPUS).mkdir(parents=True)
    for name in systems:
        for ext in ("sorts", "epts"):
            shutil.copy(ROOT / CORPUS / f"{name}.{ext}", out / CORPUS)
    bad = CORPUS / "bad_traditional.dk"
    shutil.copy(ROOT / bad, out / CORPUS)
    (out / "out" / "phi").mkdir(parents=True)   # `morphism --out` makes no directory

    runs = [(argv[0], pimod_main, argv) for argv in corpus_commands(systems)]
    runs.append(("emit_theories", emit_theories_main(), ["--out", "out/emitted"]))
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for n, run in enumerate(runs, 1):
            record(n, *run)
        theories = sorted(str(p) for p in Path("out/emitted").glob("*.dk")
                          if p.name.split("_")[0] in systems) + [str(bad)]
        for theory in theories:
            for cmd in ("analyze", "check-dk"):
                runs.append((cmd, pimod_main, [cmd, theory, "--trace"]))
                record(len(runs), *runs[-1])
        for argv in case_commands(Path("cases"), systems):
            runs.append((argv[0], pimod_main, argv))
            record(len(runs), *runs[-1])
    finally:
        os.chdir(cwd)
    return len(runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", help="directory for the results (new or empty)")
    args = ap.parse_args(argv)
    n = run_matrix(Path(args.out_dir))
    print(f"{n} runs recorded in {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
