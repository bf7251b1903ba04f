"""Smoke tests for the scripts under ``scripts/``, run through their ``main``."""

import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_main(name: str):
    return load(name).main


def structural_classes(t) -> int:
    """The number of subterms of ``t`` that differ as trees, binder hints
    included: the fewest node objects ``t`` can be built from."""
    classes: dict[int, int] = {}   # node object id -> class number
    numbers: dict[tuple, int] = {}
    stack = [t]   # every node stays alive in t, so no id is reused
    while stack:
        u = stack[-1]
        if id(u) in classes:
            stack.pop()
            continue
        kids = [k for k, _ in u.children()]
        todo = [k for k in kids if id(k) not in classes]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        data = tuple(v for f in fields(u) if isinstance(v := getattr(u, f.name), (str, int)))
        key = (type(u), data, tuple(classes[id(k)] for k in kids))
        classes[id(u)] = numbers.setdefault(key, len(numbers))
    return len(numbers)


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


def test_cli_matrix_runs_repeat_byte_for_byte(tmp_path):
    run_matrix = load("cli_matrix").run_matrix
    trees = []
    for name in ("first", "second"):
        assert run_matrix(tmp_path / name, systems=("typetype",)) > 0
        trees.append({p.relative_to(tmp_path / name): p.read_bytes()
                      for p in sorted((tmp_path / name).rglob("*")) if p.is_file()})
    first, second = trees
    assert first == second
    runs = {p.parts[1] for p in first if p.parts[0] == "runs"}
    assert {"001-check-epts", "007-encode", "008-emit_theories"} <= runs
    assert first[Path("runs/007-encode/exit")] == b"0\n"
    assert Path("out/encode/typetype_finite_theory.dk") in first
    assert not any(str(tmp_path).encode() in data for data in first.values())


def test_cli_matrix_records_the_morphism_file(tmp_path):
    load("cli_matrix").run_matrix(tmp_path, systems=("systemf",))
    [run] = [r for r in (tmp_path / "runs").glob("*-morphism")
             if json.loads((r / "argv").read_text())[1] == "phi"]
    assert (run / "exit").read_text() == "0\n"
    assert (tmp_path / "out/phi/systemf.map").read_text().strip()


def test_depth_scaling_prints_one_record_per_depth(capsys):
    assert load_main("depth_scaling")(["4", "8"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["n"] for r in records] == [4, 8]
    depth_scaling = load("depth_scaling")
    enc = depth_scaling.generate(depth_scaling.load_sorts("systemf").finite)
    for r in records:
        # the image is maximally shared: one object per distinct subterm
        m = depth_scaling.elaborate(enc.spec, depth_scaling.EptsContext(),
                                    depth_scaling.depth_term(r["n"]))
        assert r["image_distinct"] == structural_classes(depth_scaling.translate(enc, m))
        assert set(r) == {"n", "elaborate_s", "translate_s", "check_s", "invert_s",
                          "erase_s", "image_nodes", "image_distinct", "recovered_distinct",
                          "check_ticks", "invert_ticks"}
        assert all(r[k] >= 0 for k in r)
        assert 0 < r["image_distinct"] < r["image_nodes"]
        assert 0 < r["recovered_distinct"] <= r["image_distinct"]
        assert 0 < r["check_ticks"] <= r["invert_ticks"]
    assert 0 < records[0]["image_nodes"] < records[1]["image_nodes"]


def test_cli_matrix_output_matches_the_golden_digest(tmp_path):
    """Every run of the full matrix prints and writes what the checked-in
    digest records; a change that alters output on purpose regenerates
    ``tests/golden/cli_matrix.sha256`` and says why."""
    load("cli_matrix").run_matrix(tmp_path)
    golden = Path(__file__).resolve().parent / "golden" / "cli_matrix.sha256"

    def runs(path: Path) -> dict[str, str]:
        return {line.split(" ", 1)[0]: line for line in path.read_text().splitlines()}

    want, got = runs(golden), runs(tmp_path / "digest.sha256")
    differ = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    assert not differ, (
        "runs whose output differs from tests/golden/cli_matrix.sha256 "
        "(diff their trees against the parent's with scripts/cli_matrix.py): "
        + "; ".join(got.get(n) or want[n] for n in differ))
