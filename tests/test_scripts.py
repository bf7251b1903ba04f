"""Smoke tests for the scripts under ``scripts/``, run through their ``main``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_main(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_emit_theories_validates_every_bundled_encoding(tmp_path, capsys):
    assert load_main("emit_theories")(["--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.lstrip().startswith("ok") for line in lines)
    [mltt] = [line for line in lines if "mltt_internalized_theory.dk" in line]
    assert mltt.endswith(", 1 trivial overlap(s))")
    assert (tmp_path / "mltt_internalized_theory.dk").exists()


def test_adequacy_report_finds_every_judgment_adequate(capsys):
    assert load_main("adequacy_report")([]) == 0
    assert capsys.readouterr().out.rstrip().endswith("all judgments adequate")


@pytest.mark.parametrize("fuel", ["0", "-3", "x"])
def test_adequacy_report_rejects_a_bad_budget_as_usage(fuel, capsys):
    with pytest.raises(SystemExit) as e:
        load_main("adequacy_report")(["--fuel", fuel])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "argument --fuel" in err and "Traceback" not in err
