"""End-to-end runs of the command line, in process but for one run whose
reader closes the pipe."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pimod.corpus
from pimod.cli import main
from pimod.corpus import CORPUS_NAMES, load_sorts
from pimod.encode import generate, translate
from pimod.epts import EptsContext, elaborate
from pimod.errors import InternalSoundnessError
from pimod.rewrite import nf, reduce_trace
from pimod.syntax import parse_dk_term, parse_epts_file
from test_syntax import JUDGMENTS_SRC, SORTS_SRC

CORPUS_DIR = Path(pimod.corpus.__file__).parent
SYSTEMF_SORTS = str(CORPUS_DIR / "systemf.sorts")
SYSTEMF_EPTS = str(CORPUS_DIR / "systemf.epts")
BAD_DK = str(CORPUS_DIR / "bad_traditional.dk")
MLTT_SORTS = str(CORPUS_DIR / "mltt.sorts")
MLTT_EPTS = str(CORPUS_DIR / "mltt.epts")


# framework terms whose sort arguments are System F sorts only after
# evaluation, with the source type to decode them at and the result
INTERNALIZED_TERMS = [
    ("Prod(Ru(type,type), type, C, lam x : El(Ru(type,type), C). C)", "Type", "C -> C"),
    ("abs(Ru(type,type), type, C, lam x : El(type, C). C, lam x : El(Ru(type, type), C). x)",
     "C -> C", "lam x : C. x"),
]

# a non-left-linear rule and one whose pattern holds an application
CYCLIC_DK = ("constant A : TYPE. constant c : A. constant h (x : A, y : A) : A. "
             'rule "r1" h(x, x) --> x. rule "r2" h(y z, y) --> c.\n')


@pytest.fixture
def sandbox(tmp_path):
    sorts = tmp_path / "sf.sorts"
    sorts.write_text(SORTS_SRC)
    epts = tmp_path / "sf.epts"
    epts.write_text(JUDGMENTS_SRC)
    return tmp_path, str(sorts), str(epts)


class TestCheckDk:
    def test_good_theory(self, tmp_path, capsys):
        f = tmp_path / "nat.dk"
        f.write_text("constant N : TYPE.\nconstant z : N.\n"
                     "assume k : N.\ncheck z : N.\ncheck k : N.\n")
        assert main(["check-dk", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok  ") == 3 and "FAIL" not in out

    def test_failed_check(self, tmp_path, capsys):
        f = tmp_path / "nat.dk"
        f.write_text("constant N : TYPE.\nconstant z : N.\ncheck z : N -> N.\n")
        assert main(["check-dk", str(f)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_mismatch_primes_binders_named_after_constants(self, tmp_path, capsys):
        """The message prints a type as ``render_theory`` writes it."""
        f = tmp_path / "shadow.dk"
        f.write_text("constant N : TYPE. constant z : N. constant P (n : N) : TYPE. "
                     "constant g : Pi z : N. P(z). check g : N.\n")
        assert main(["check-dk", str(f)]) == 1
        assert "expected N, got Pi z' : N. P(z')\n" in capsys.readouterr().out

    def test_parse_error_is_reported_not_raised(self, tmp_path, capsys):
        f = tmp_path / "broken.dk"
        f.write_text("constant : TYPE.")
        assert main(["check-dk", str(f)]) == 1
        assert "expected a constant name" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check-dk", "no/such/file.dk"]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_trace_goes_to_stderr(self, tmp_path, capsys):
        f = tmp_path / "nat.dk"
        f.write_text("constant N : TYPE.\nconstant z : N.\ncheck z : N.\n")
        assert main(["check-dk", "--trace", str(f)]) == 0
        assert "z : N" in capsys.readouterr().err

    def test_trace_is_per_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.dk"
        bad.write_text("constant N : TYPE.\nconstant z : N -> TYPE.\nconstant w : z.\n")
        good = tmp_path / "good.dk"
        good.write_text("constant M : TYPE.\n")
        assert main(["check-dk", "--trace", str(bad), str(good)]) == 1
        assert capsys.readouterr().err == "      TYPE : KIND\n"


class TestLineBreaks:
    """The CLI hands the parsers each file's own text, so positions are the
    library's: a lone carriage return is a blank, and CRLF line ends keep
    every span."""

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_lone_carriage_return_ends_no_line(self, eol, tmp_path, capsys):
        text = "[sorts]\nA\n[internalized]\nconstant a : Sort.\rB := a a ).\n"
        f = tmp_path / "cr.sorts"
        f.write_bytes(text.replace("\n", eol).encode())
        assert main(["check-epts", str(f), SYSTEMF_EPTS]) == 1
        assert f"{f}:4:29: expected ., found ')'" in capsys.readouterr().out

    def test_crlf_keeps_the_spans(self, tmp_path, capsys):
        f = tmp_path / "t.dk"
        f.write_bytes(b"constant N : TYPE.\r\n\r\nconstant : TYPE.\r\n")
        assert main(["check-dk", str(f)]) == 1
        assert f"{f}:3:10: expected a constant name" in capsys.readouterr().out


class TestCheckEpts:
    def test_corpus_both_modes(self, capsys):
        for mode in ("finite", "internalized"):
            assert main(["check-epts", SYSTEMF_SORTS, SYSTEMF_EPTS,
                         "--mode", mode]) == 0
            out = capsys.readouterr().out
            assert f"[{mode}]" in out and "FAIL" not in out

    def test_a_mismatch_primes_binders_named_after_sorts(self, tmp_path, capsys):
        """A binder hinted ``Type`` does not print as the sort ``Type``."""
        f = tmp_path / "shadow.epts"
        f.write_text("assume C : Type. def bad : Pi A : Type. C -> C := "
                     "lam Type : Type. lam x : Type. x.\n")
        assert main(["check-epts", SYSTEMF_SORTS, str(f), "--mode", "finite"]) == 1
        assert ("got Pi{Kind,Type}(Type, Type'. Pi{Type,Type}(Type', x. Type'))\n"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("fmt", ["text", "machine-readable"])
    def test_notes_the_unnamed_axiom_of_the_top_sort(self, fmt, capsys):
        """The axiom of MLTT's sort 3 is defined but has no name: noted once,
        before any judgment trips over it, and the run still passes."""
        assert main(["check-epts", MLTT_SORTS, MLTT_EPTS, "--mode", "internalized",
                     "--format", fmt]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if "unnamed-axiom" in line]
        assert len(notes) == 1
        if fmt == "machine-readable":
            assert json.loads(notes[0])["subject"] == f"{MLTT_SORTS}:3"
        else:
            assert f"  unnamed-axiom  {MLTT_SORTS}:3  --  " in notes[0]

    @pytest.mark.parametrize("fmt", ["text", "machine-readable"])
    def test_a_note_prints_as_a_note(self, fmt, capsys):
        """A note is no failure, but it is not a plain success either: its
        text line carries the ``note`` mark and its record names its
        severity, while the other records carry none."""
        assert main(["check-epts", MLTT_SORTS, MLTT_EPTS, "--mode", "internalized",
                     "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        note = next(line for line in lines if "unnamed-axiom" in line)
        if fmt == "machine-readable":
            assert json.loads(note)["severity"] == "note"
            assert json.loads(note)["ok"] is True
            assert all("severity" not in json.loads(line) for line in lines if line != note)
        else:
            assert note.startswith("note  unnamed-axiom  ")
            assert all(line.startswith("ok    ") for line in lines if line != note)

    def test_fuel_env_and_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("PIMOD_FUEL", "1")
        assert main(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS]) == 1
        assert "FuelExhausted" in capsys.readouterr().out
        assert main(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS,
                     "--fuel", "100000"]) == 0


# System F's sort file with a second value for Ru(type, type), and with a
# rule that rewrites every Ru application to itself in place of ru-tt
RU_TT = 'rule "ru-tt" Ru(type, type) --> type.\n'
BAD_SORTS = {
    "ru_tt2.sorts": (RU_TT + 'rule "ru-tt2" Ru(type, type) --> kind.\n',
                     "NonFunctionalSpec", "the product rule for (Type, Type) has two normal "
                     "forms: type and kind"),
    "loop.sorts": ('rule "loop" Ru(x, y) --> Ru(x, y).\n',
                   "NonTerminatingSpec", "the product rule for (Type, Type) has a cycle: "
                   "rule 'loop' leads back to Ru(type, type)"),
}


class TestSortTableAtLoad:
    """Every subcommand that loads an internalized spec fills its whole
    table first, so a spec that is not functional or not terminating
    fails at load, naming the entry, however small the budget."""

    @pytest.mark.parametrize("cmd", ["check-epts", "encode", "roundtrip", "decode", "phi"])
    @pytest.mark.parametrize("name", BAD_SORTS)
    def test_a_bad_entry_fails_at_load(self, name, cmd, tmp_path, capsys):
        rule, error, message = BAD_SORTS[name]
        sorts = tmp_path / name
        sorts.write_text(Path(SYSTEMF_SORTS).read_text().replace(RU_TT, rule))
        argv = ([cmd, str(sorts), SYSTEMF_EPTS, "--mode", "internalized"] if cmd != "phi"
                else ["morphism", "phi", str(sorts), "--out", str(tmp_path / "phi.map")])
        argv += ["--out", str(tmp_path)] if cmd == "encode" else []
        assert main(argv + ["--fuel", "100"]) == 1
        assert capsys.readouterr().out == f"FAIL  {error}    --  {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]


def test_a_closed_pipe_ends_the_run_quietly():
    """A reader that stops reading, as ``pimod check-epts … | head -1``
    does, ends the run with exit 1 and no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(pimod.corpus.__file__).parents[2]))
    p = subprocess.Popen([sys.executable, "-m", "pimod", "check-epts", SYSTEMF_SORTS,
                          SYSTEMF_EPTS], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env)
    p.stdout.close()   # nothing is read: the first write meets a closed pipe
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=60) == 1
    assert err == b""


def _one_record(capsys, fmt):
    """The single failure record a run printed on stdout, as a dict."""
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and "Traceback" not in err
    if fmt == "machine-readable":
        rec = json.loads(out)
        assert rec["ok"] is False
        return rec, err
    assert out.startswith("FAIL  ")
    kind, _, detail = out[6:].rstrip("\n").partition("    --  ")
    return {"kind": kind.strip(), "detail": detail}, err


FORMATS = ("text", "machine-readable")


class TestBadBudget:
    @pytest.mark.parametrize("flag, env", [
        (["--fuel", "0"], None),
        (["--fuel", "-3"], None),
        ([], "0"),
        ([], "abc"),
    ], ids=["fuel-0", "fuel-minus-3", "env-0", "env-abc"])
    def test_is_one_record_and_exit_1(self, flag, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("PIMOD_FUEL", env)
        where = "--fuel" if flag else "PIMOD_FUEL"
        for fmt in FORMATS:
            argv = ["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--format", fmt]
            assert main(argv + flag) == 1
            rec, _ = _one_record(capsys, fmt)
            assert rec["kind"] == "PimodError"
            assert rec["detail"].startswith(f"{where} must be a positive integer")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["decode"],
        ["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--fuel", "x"],
        ["morphism", "phi"],
        ["frobnicate"],
    ], ids=["missing-arguments", "fuel-not-an-int", "nested-subcommand",
            "unknown-command"])
    def test_exit_1_with_one_record(self, argv, capsys):
        for fmt in FORMATS:
            assert main(argv + ["--format", fmt]) == 1
            rec, err = _one_record(capsys, fmt)
            assert rec["kind"] == "usage-error"
            assert rec["detail"].startswith("pimod")
            assert err.startswith("usage: pimod")

    @pytest.mark.parametrize("argv", [["--help"], ["morphism", "phi", "--help"]])
    def test_help_still_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pimod")


class TestEncodeDecode:
    def test_encode_emits_checkable_theories(self, sandbox, capsys):
        tmp, sorts, epts = sandbox
        out = tmp / "gen"
        assert main(["encode", sorts, epts, "--out", str(out)]) == 0
        theory = out / "sf_finite_theory.dk"
        judgments = out / "sf_finite_judgments.dk"
        assert theory.exists() and judgments.exists()
        capsys.readouterr()
        # the emitted files stand on their own under the kernel
        assert main(["check-dk", str(theory), str(judgments)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_encode_internalized_names_files_by_mode(self, sandbox, capsys):
        tmp, sorts, epts = sandbox
        out = tmp / "gen"
        assert main(["encode", sorts, epts, "--mode", "internalized",
                     "--out", str(out)]) == 0
        assert (out / "sf_internalized_theory.dk").exists()

    def test_decode_judgments_round_trip(self, capsys):
        assert main(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS]) == 0
        out = capsys.readouterr().out
        assert "round-trips" in out and "FAIL" not in out

    def test_decode_single_term(self, sandbox, capsys):
        _, sorts, epts = sandbox
        assert main(["decode", sorts, epts, "--term", "c", "--type", "C"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("c")

    @pytest.mark.parametrize("term, type_, shown", INTERNALIZED_TERMS)
    def test_decode_term_with_unevaluated_sort_arguments(self, term, type_, shown, capsys):
        # the sort arguments name Type only after evaluation; the term's
        # re-translation writes them evaluated, and that is no violation
        assert main(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--mode", "internalized",
                     "--term", term, "--type", type_]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f"--  {shown}")

    def test_decode_term_needs_type(self, sandbox, capsys):
        _, sorts, epts = sandbox
        assert main(["decode", sorts, epts, "--term", "c"]) == 1
        assert "--type" in capsys.readouterr().out

    def test_internal_violation_exits_2(self, sandbox, monkeypatch, capsys):
        _, sorts, epts = sandbox

        def boom(*a, **k):
            raise InternalSoundnessError("fabricated for the exit-code test")

        monkeypatch.setattr("pimod.cli.conservative_invert", boom)
        assert main(["decode", sorts, epts, "--term", "c", "--type", "C"]) == 2
        err = capsys.readouterr().err
        assert "internal soundness violation" in err
        assert "fabricated" in err

    def test_internal_violation_is_one_machine_readable_record(
            self, sandbox, monkeypatch, capsys):
        _, sorts, epts = sandbox

        def boom(*a, **k):
            raise InternalSoundnessError("fabricated for the record test")

        monkeypatch.setattr("pimod.cli.conservative_invert", boom)
        assert main(["decode", sorts, epts, "--term", "c", "--type", "C",
                     "--format", "machine-readable"]) == 2
        out, err = capsys.readouterr()
        assert out.count("\n") == 1
        rec = json.loads(out)
        assert rec["kind"] == "internal-soundness-violation" and rec["ok"] is False
        assert "fabricated" in rec["detail"]
        assert "internal soundness violation" in err

    def test_exhausted_budget_is_not_a_soundness_violation(self, capsys):
        # the kernel check and the beta-normalization share one budget
        term = "(lam w : U@Type. w) ((lam w : U@Type. w) ((lam w : U@Type. w) C))"
        assert main(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--term", term,
                     "--type", "Type", "--fuel", "2"]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("FAIL  FuelExhausted") and out.count("\n") == 1
        assert "soundness" not in err


class TestRoundtrip:
    def test_corpus_adequacy(self, capsys):
        for mode in ("finite", "internalized"):
            assert main(["roundtrip", SYSTEMF_SORTS, SYSTEMF_EPTS,
                         "--mode", mode]) == 0
            assert "FAIL" not in capsys.readouterr().out

    def test_machine_readable_is_deterministic_json(self, capsys):
        argv = ["roundtrip", SYSTEMF_SORTS, SYSTEMF_EPTS,
                "--format", "machine-readable"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        for line in first.splitlines():
            rec = json.loads(line)
            assert rec["ok"] is True
            assert {"kind", "subject"} <= rec.keys()

    def test_trace_narrates_the_simulation(self, capsys):
        assert main(["roundtrip", SYSTEMF_SORTS, SYSTEMF_EPTS, "--trace"]) == 0
        err = capsys.readouterr().err
        assert "--beta@" in err and "--β-->" in err

    def test_too_deep_a_numeral_is_a_resource_limit(self, tmp_path, capsys):
        body = "x"
        for _ in range(600):
            body = f"f ({body})"
        deep = tmp_path / "deep.epts"
        deep.write_text("def nat : Type := Pi A : Type. (A -> A) -> A -> A.\n"
                        f"def big : nat := lam A : Type. lam f : A -> A. lam x : A. {body}.\n")
        assert main(["roundtrip", SYSTEMF_SORTS, str(deep)]) == 3
        out, err = capsys.readouterr()
        assert out.startswith("FAIL  resource-limit") and out.count("\n") == 1
        assert "Traceback" not in err
        assert main(["roundtrip", SYSTEMF_SORTS, str(deep),
                     "--format", "machine-readable"]) == 3
        out, err = capsys.readouterr()
        rec = json.loads(out)
        assert rec["kind"] == "resource-limit" and rec["ok"] is False
        assert "RecursionError" in rec["detail"]
        assert "Traceback" not in err


class TestAnalyze:
    def test_traditional_encoding_is_rejected_with_witness(self, capsys):
        assert main(["analyze", BAD_DK]) == 1
        out = capsys.readouterr().out
        assert "arity-violation" in out
        assert "head erasure changes from * to * -> *" in out

    def test_generated_theories_pass(self, sandbox, capsys):
        tmp, sorts, epts = sandbox
        out = tmp / "gen"
        main(["encode", sorts, epts, "--out", str(out)])
        main(["encode", sorts, epts, "--mode", "internalized", "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out / "sf_finite_theory.dk")]) == 0
        assert "arity-preserving" in capsys.readouterr().out
        assert main(["analyze", str(out / "sf_internalized_theory.dk")]) == 0

    def test_trivial_overlaps_are_noted_not_fatal(self, tmp_path, capsys):
        mltt = CORPUS_DIR / "mltt.sorts"
        epts = CORPUS_DIR / "mltt.epts"
        out = tmp_path / "gen"
        main(["encode", str(mltt), str(epts), "--mode", "internalized",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", str(out / "mltt_internalized_theory.dk")]) == 0
        assert "trivial overlaps noted" in capsys.readouterr().out

    def test_non_joinable_pair_under_binders_is_fatal(self, tmp_path, capsys):
        f = tmp_path / "nonconfluent.dk"
        f.write_text(
            "constant A : TYPE.\n"
            "constant a : A.\n"
            "constant b : A.\n"
            "constant f (x : A, y : A) : A.\n"
            'rule "r1" f(a, X) --> (lam z : A. z) X.\n'
            'rule "r2" f(X, b) --> (lam z : A. z) X.\n')
        assert main(["analyze", str(f)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  overlap" in out and "trivial" not in out


    def test_rules_sharing_a_name_are_still_compared(self, tmp_path, capsys):
        f = tmp_path / "shared_names.dk"
        f.write_text(
            "constant A : TYPE.\n"
            "constant a : A.\n"
            "constant b : A.\n"
            "constant f (x : A) : A.\n"
            'rule "x" f(a) --> a.\n'
            'rule "y" f(X) --> X.\n'
            'rule "x" f(b) --> a.\n')
        assert main(["analyze", str(f)]) == 1
        assert "FAIL  overlap" in capsys.readouterr().out

    def test_occurs_check_looks_below_applications(self, tmp_path, capsys):
        # unifying the two left-hand sides asks for y := y z; a check that
        # stops at the application binds it, and the pair's peak never ends
        f = tmp_path / "cyclic.dk"
        f.write_text(CYCLIC_DK)
        assert main(["analyze", str(f)]) == 1
        out = capsys.readouterr().out
        assert [line.split()[1:3] for line in out.splitlines()] == [
            ["bad-pattern", f"{f}:r2"], ["non-left-linear", f"{f}:r1"]]
        assert main(["check-dk", str(f)]) == 1
        out = capsys.readouterr().out
        assert [line.split()[1:3] for line in out.splitlines()] == [
            ["non-left-linear", f"{f}:r1"], ["bad-pattern", f"{f}:r2"]]

    def test_non_left_linear_rule_is_reported_once(self, tmp_path, capsys):
        f = tmp_path / "nonlinear.dk"
        f.write_text("constant N : TYPE.\nconstant f (a : N, b : N) : N.\n"
                     'rule "nl" f(X, X) --> X.\n')
        for cmd in ("analyze", "check-dk"):
            assert main([cmd, str(f)]) == 1
            out = capsys.readouterr().out
            assert out.count("non-left-linear") == 1, cmd

# self-application at a base type: ill-typed, and its beta-reduction loops
OMEGA = "(lam x : U@Type. x x) (lam x : U@Type. x x)"


class TestTraceNeverChangesAVerdict:
    """``--trace`` only adds lines to stderr: stdout and the exit code are
    those of the same run without it."""

    @staticmethod
    def _same(argv, capsys):
        plain = main(argv), capsys.readouterr().out
        traced = main(argv + ["--trace"]), capsys.readouterr().out
        assert traced == plain, argv
        return plain

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_bundled_systems(self, name, tmp_path, capsys):
        sf = load_sorts(name)
        sorts, epts = str(CORPUS_DIR / f"{name}.sorts"), str(CORPUS_DIR / f"{name}.epts")
        for mode, spec in (("finite", sf.finite), ("internalized", sf.internalized)):
            if spec is None:
                continue
            for cmd in (["check-epts"], ["encode", "--out", str(tmp_path)],
                        ["decode"], ["roundtrip"]):
                self._same([cmd[0], sorts, epts, "--mode", mode, *cmd[1:]], capsys)

    @pytest.mark.parametrize("cmd", ["check-dk", "analyze"])
    def test_traditional_encoding(self, cmd, capsys):
        self._same([cmd, BAD_DK], capsys)

    def test_decode_of_an_ill_typed_term(self, capsys):
        # the replay of a term that does not check would never finish
        code, out = self._same(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--term", OMEGA,
                                "--type", "C", "--fuel", "2000"], capsys)
        assert code == 1 and out.startswith("FAIL  NotAProduct")


class TestShadowedNames:
    """An assumption that reuses an earlier name prints primed, the way a
    context prints, so that each printed name stands for one variable."""

    def test_source_traces(self, tmp_path, capsys):
        epts = tmp_path / "shadow.epts"
        epts.write_text("assume A : Prop. assume a : A. assume g : A -> A.\n"
                        "assume P : A -> Prop. assume A : Prop.\n"
                        "def q : Prop := A -> P (g a).\n")
        coc = str(CORPUS_DIR / "coc.sorts")
        assert main(["check-epts", coc, str(epts), "--trace"]) == 0
        assert capsys.readouterr().err == (
            "      Pi{Prop,Prop}(A', x. app{Prop,Type}(A, x'. Prop, P, "
            "app{Prop,Prop}(A, x'. A, g, a)))\n")
        assert main(["encode", coc, str(epts), "--trace", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err.startswith(
            "      q -> Prod@Prop@Prop(A', lam x : El@Prop(A'). app@Prop@Type(A, ")

    def test_framework_checks_and_trace(self, tmp_path, capsys):
        f = tmp_path / "shadow.dk"
        f.write_text("constant N : TYPE.\nconstant M : TYPE.\n"
                     "assume x : N. assume x : M.\ncheck x : M.\n")
        assert main(["check-dk", str(f), "--trace"]) == 1   # the name repeats
        out, err = capsys.readouterr()
        assert "ok    check  x' : M\n" in out
        assert err.endswith("      x' : M\n")

    def test_assumption_named_after_a_constant(self, tmp_path, capsys):
        """It prints primed in the context diagnostic, in the check and in
        the kernel's message, as the theory printer writes it."""
        f = tmp_path / "shadow.dk"
        f.write_text("constant N : TYPE.\nconstant z : N.\nassume N : TYPE.\ncheck z : N.\n")
        assert main(["check-dk", str(f)]) == 1
        out = capsys.readouterr().out
        assert (f"FAIL  not-a-type  {f}:N'  --  type of 'N'' is Kind-sorted, not TYPE\n"
                "FAIL  check  z : N'  --  type mismatch at top level: "
                "expected N', got N\n") in out

    def test_a_term_typed_entry_is_not_type_sorted(self, tmp_path, capsys):
        """An entry whose type is a term is worded as ``check_signature``
        words a telescope entry, whatever the class of that term's type."""
        f = tmp_path / "term.dk"
        f.write_text("constant N : TYPE.\nconstant z : N.\nassume y : z.\n"
                     "assume g : N -> N.\nassume x : g.\n")
        assert main(["check-dk", str(f)]) == 1
        out = capsys.readouterr().out
        assert (f"FAIL  not-a-type  {f}:y  --  type of 'y' is not TYPE-sorted\n"
                f"FAIL  not-a-type  {f}:x  --  type of 'x' is not TYPE-sorted\n") in out

    def test_context_diagnostics_name_entries_as_printed(self, tmp_path, capsys):
        """An ill-typed entry is named as printed; a repeated hint is
        reported under the hint as written."""
        f = tmp_path / "shadow.dk"
        f.write_text("constant N : TYPE.\nconstant M : TYPE.\nconstant m : M.\n"
                     "constant f (n : N) : TYPE.\nassume f : f(m).\nassume x : N.\n"
                     "assume x : M.\n")
        assert main(["check-dk", str(f)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith(f"FAIL  ill-typed-context  {f}:f'  --  ")
        assert "context entry 'f''" in lines[1]
        assert lines[2:] == [f"FAIL  duplicate-name  {f}:x  --  context name 'x' repeats"]


class TestBindersNamedAfterSorts:
    """A source binder whose hint is a sort's name prints primed, as a
    framework binder named after a constant does, so that the printed
    term reads back as the term."""

    # the image of `lam A : Type. lam x : A. lam B : Type. x` with its
    # first binder hinted `Type`, and its type
    TERM = ("abs@Kind@Type(u@Type, lam Type : El@Kind(u@Type). Prod@Type@Type(Type, "
            "lam x : El@Type(Type). Prod@Kind@Type(u@Type, lam B : El@Kind(u@Type). Type)), "
            "lam Type : El@Kind(u@Type). abs@Type@Type(Type, lam x : El@Type(Type). "
            "Prod@Kind@Type(u@Type, lam B : El@Kind(u@Type). Type), lam x : El@Type(Type). "
            "abs@Kind@Type(u@Type, lam B : El@Kind(u@Type). Type, "
            "lam B : El@Kind(u@Type). x)))")
    TYPE = "Pi A : Type. A -> Pi B : Type. A"

    def test_decoded_term_reads_back(self, tmp_path, capsys):
        assert main(["decode", SYSTEMF_SORTS, SYSTEMF_EPTS, "--mode", "finite",
                     "--term", self.TERM, "--type", self.TYPE]) == 0
        shown = capsys.readouterr().out.rstrip().rsplit("--  ", 1)[1]
        assert shown == "lam Type' : Type. lam x : Type'. lam B : Type. x"
        epts = tmp_path / "back.epts"
        epts.write_text(f"assume C : Type.\ndef back : {self.TYPE} := {shown}.\n")
        assert main(["check-epts", SYSTEMF_SORTS, str(epts), "--mode", "finite"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_explicit_trace(self, tmp_path, capsys):
        epts = tmp_path / "sort_named.epts"
        epts.write_text("def k : Pi A : Type. A -> A := lam Type : Type. lam x : Type. x.\n")
        assert main(["check-epts", SYSTEMF_SORTS, str(epts), "--mode", "finite",
                     "--trace"]) == 0
        assert capsys.readouterr().err == (
            "      lam{Kind,Type}(Type, Type'. Pi{Type,Type}(Type', x. Type'), "
            "Type'. lam{Type,Type}(Type', x. Type', x. x))\n")


class TestFrameworkTraceNames:
    """A framework ``--trace`` line names binders and context entries as
    the written files do: a binder or an entry named after a constant of
    the encoding prints primed, so that the line reads back as the term."""

    # `u@Type` names the universe code of `Type` in the finite encoding
    SHADOW = ("def f : Pi A : Type. Pi B : Type. A -> A := "
              "(lam g : Pi A : Type. Pi B : Type. A -> A. g) "
              "(lam u@Type : Type. lam B : Type. lam x : u@Type. x).\n")
    CTX = "assume u@Type : Type.\nassume c : u@Type.\n"

    def test_roundtrip_reducts_read_back(self, tmp_path, capsys):
        epts = tmp_path / "shadow.epts"
        epts.write_text(self.SHADOW)
        assert main(["roundtrip", SYSTEMF_SORTS, str(epts), "--mode", "finite",
                     "--trace"]) == 0
        lines = capsys.readouterr().err.splitlines()
        spec = load_sorts("systemf").finite
        enc = generate(spec)
        [j] = parse_epts_file(self.SHADOW, spec).judgments
        m = elaborate(spec, EptsContext(), j.term)
        _, trail = reduce_trace(enc.theory, translate(enc, m), enc.simulation_labels())
        assert len(lines) == len(trail) == 2
        for line, (label, t) in zip(lines, trail):
            head = f"      --{label}--> "
            assert line.startswith(head)
            assert parse_dk_term(line[len(head):], enc.theory) == t
        assert lines[1].startswith(
            "      --β--> abs@Kind@Type(u@Type, lam u@Type' : El@Kind(u@Type). ")

    def test_encode_trace_is_the_written_check(self, tmp_path, capsys):
        epts = tmp_path / "ctx.epts"
        epts.write_text(self.CTX + "def i : u@Type -> u@Type := lam x : u@Type. x.\n")
        assert main(["encode", SYSTEMF_SORTS, str(epts), "--mode", "finite", "--trace",
                     "--out", str(tmp_path)]) == 0
        shown = capsys.readouterr().err.strip().removeprefix("i -> ")
        assert shown.startswith("abs@Type@Type(u@Type', ")
        written = (tmp_path / "ctx_finite_judgments.dk").read_text()
        assert f"check {shown} : " in written

    def test_decode_trace_reads_back(self, tmp_path, capsys):
        epts = tmp_path / "ctx.epts"
        epts.write_text(self.CTX)
        term = ("(lam w : El@Type(u@Type'). abs@Type@Type(u@Type', lam x : El@Type(u@Type'). "
                "u@Type', lam x : El@Type(u@Type'). x)) c")
        assert main(["decode", SYSTEMF_SORTS, str(epts), "--mode", "finite", "--trace",
                     "--term", term, "--type", "u@Type -> u@Type"]) == 0
        [line] = capsys.readouterr().err.splitlines()
        shown = line.removeprefix("      --β--> ")
        enc = generate(load_sorts("systemf").finite)
        assert shown.startswith("abs@Type@Type(u@Type', ")
        assert parse_dk_term(shown, enc.theory, ["u@Type'", "c"]) == \
            nf(enc.theory, parse_dk_term(term, enc.theory, ["u@Type'", "c"]))

    def test_morphism_trace_is_the_written_map(self, tmp_path, capsys):
        out = tmp_path / "phi.map"
        assert main(["morphism", "phi", SYSTEMF_SORTS, "--trace", "--out", str(out)]) == 0
        traced = [line.strip() for line in capsys.readouterr().err.splitlines()]
        assert "El@Type := El(type, A)" in traced
        assert [f"map {line}." for line in traced] == out.read_text().splitlines()


class TestTypeErrorNames:
    """A type error prints the variables of its context by name, as the
    subject of the failed check prints them."""

    def test_framework_mismatch(self, tmp_path, capsys):
        f = tmp_path / "fam.dk"
        f.write_text("constant N : TYPE. constant P (n : N) : TYPE.\n"
                     "assume n : N. assume p : P(n). check p : P(n) -> N.\n")
        assert main(["check-dk", str(f)]) == 1
        assert ("FAIL  check  p : P(n) -> N  --  type mismatch at top level: "
                "expected P(n) -> N, got P(n)\n") in capsys.readouterr().out

    def test_source_mismatch(self, tmp_path, capsys):
        f = tmp_path / "selfapp.epts"
        f.write_text("assume C : Type. assume D : Type. assume c : C.\n"
                     "def bad : (C -> D) -> D := lam f : C -> D. f f.\n")
        assert main(["check-epts", SYSTEMF_SORTS, str(f),
                     "--format", "machine-readable"]) == 1
        [record] = [json.loads(line) for line in capsys.readouterr().out.splitlines()
                    if '"judgment"' in line]
        assert record["detail"] == ("term does not have the required type; subject=f: "
                                    "expected C, got Pi{Type,Type}(C, x. D)")

    def test_source_not_a_product_and_not_a_type(self, tmp_path, capsys):
        f = tmp_path / "heads.epts"
        f.write_text("assume C : Type. assume c : C.\n"
                     "def app : C := c c.\n"
                     "def ann : Type := Pi x : c. C.\n")
        assert main(["check-epts", SYSTEMF_SORTS, str(f)]) == 1
        out = capsys.readouterr().out
        assert ("the function part of an application is not of product type; "
                "head=c; head_type=C\n") in out
        assert ("expected a type, but its type is not a sort; subject=c; "
                "actual=C\n") in out


class TestMorphism:
    def test_phi_verify_and_apply(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        phi_path = tmp_path / "phi.map"
        assert main(["encode", SYSTEMF_SORTS, SYSTEMF_EPTS,
                     "--out", str(gen)]) == 0
        assert main(["encode", SYSTEMF_SORTS, SYSTEMF_EPTS,
                     "--mode", "internalized", "--out", str(gen)]) == 0
        capsys.readouterr()

        assert main(["morphism", "phi", SYSTEMF_SORTS,
                     "--out", str(phi_path)]) == 0
        out = capsys.readouterr().out
        assert "morphism" in out and "FAIL" not in out
        assert phi_path.exists()

        src = str(gen / "systemf_finite_theory.dk")
        dst = str(gen / "systemf_internalized_theory.dk")
        assert main(["morphism", "verify", src, dst, str(phi_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

        assert main(["morphism", "apply", src, dst, str(phi_path),
                     "--term", "u@Type"]) == 0
        assert "u(type)" in capsys.readouterr().out
        # a binder named after a constant of the target prints primed
        assert main(["morphism", "apply", src, dst, str(phi_path),
                     "--term", "lam type : U@Type. El@Type(type)"]) == 0
        assert capsys.readouterr().out.endswith(
            "  --  lam type' : U(type). El(type, type')\n")

    def test_phi_needs_both_halves(self, tmp_path, capsys):
        coc = CORPUS_DIR / "coc.sorts"
        assert main(["morphism", "phi", str(coc)]) == 1
        assert "internalized" in capsys.readouterr().out

    def test_unwritable_out_is_a_clean_error(self, tmp_path, capsys):
        # --out names a file; handing it a directory must not traceback
        assert main(["morphism", "phi", SYSTEMF_SORTS,
                     "--out", str(tmp_path)]) == 1
        assert "cannot write" in capsys.readouterr().out


class TestCorpusListing:
    def test_lists_every_system_with_modes(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        for name in ("systemf", "coc", "typetype", "mltt"):
            assert name in out
        assert out.count("finite, internalized") == 2
