"""Tests of the benchmark itself: seeding, answer checking, determinism.

Run from the root of the repository:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, payload  # noqa: E402

SEED = 918273645


def _dump(p) -> bytes:
    return json.dumps(p, sort_keys=True).encode()


def _small(workload: str, seed: int) -> dict:
    """A cheap slice of a workload's payload, for in-process runs."""
    p = payload(workload, seed)
    if workload == "theory_tower":
        p["towers"] = [t for t in p["towers"] if t["levels"] <= 3]
    else:
        p["items"] = sorted(p["items"],
                            key=lambda it: (len(it["term"]), it.get("mode", "")))[:3]
    return p


def _traced_pass(p):
    tr = worker.SpanTracer()
    verdicts, state = worker.SETUPS[p["workload"]](tr, p)
    setup = tr.take_counts()
    tally = worker.Tally()
    worker.run_batch(tr, verdicts, state, tally)
    return setup, tr.take_counts(), tally, tr


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _dump(payload(workload, SEED)) == _dump(payload(workload, SEED))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_changes_inputs(workload):
    assert _dump(payload(workload, SEED)) != _dump(payload(workload, SEED + 1))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_never_reaches_pimod(workload):
    data = _dump(payload(workload, SEED))
    assert str(SEED).encode() not in data
    assert b'"seed"' not in data
    cmd = run.worker_command("timed", 20.0)
    assert str(SEED) not in " ".join(cmd)
    assert str(SEED) not in " ".join(run.worker_env(ROOT / "src").values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    first = _traced_pass(_small(workload, SEED))
    second = _traced_pass(_small(workload, SEED))
    assert first[2].failed == second[2].failed == 0, first[2].errors
    assert first[:2] == second[:2]
    assert first[1] == _traced_pass(_small(workload, SEED + 1))[1]


def test_wrong_answers_count_as_failed():
    p = _small("church_sum", SEED)
    p["items"][0]["sum"] += 1
    assert _traced_pass(p)[2].failed == 1

    p = _small("deep_binders", SEED)
    it = p["items"][0]
    it["var"] = (it["var"] + 1) % (it["depth"] + 1)
    assert _traced_pass(p)[2].failed == 1

    p = _small("theory_tower", SEED)
    p["towers"][0]["notes"] = {"finite": 1, "internalized": 1}
    assert _traced_pass(p)[2].failed == 1


def test_exception_counts_as_failed():
    p = _small("deep_binders", SEED)
    p["items"][0]["type"] = "C"          # the term is not of type C
    tally = _traced_pass(p)[2]
    assert tally.failed == 1 and sum(tally.errors.values()) == 1


def test_spans_cover_every_layer_call():
    _, _, _, tr = _traced_pass(_small("church_sum", SEED))
    names = {s[0] for s in tr.spans}
    assert names <= set(worker.LAYERS) | {"verdict"}
    assert {"rewrite.nf", "kernel.check", "decode.invert", "analysis.erase"} <= names
    for name, start, end, parent, verdict in tr.spans:
        assert start <= end
        if name != "verdict" and verdict is not None:
            assert tr.spans[parent][0] == "verdict"


def test_self_time_subtracts_children():
    spans = [["verdict", 0.0, 10.0, None, 0], ["kernel.check", 1.0, 4.0, 0, 0],
             ["rewrite.nf", 5.0, 6.0, 0, 0]]
    got = worker.self_times(spans)
    assert got["verdict"] == 6.0 and got["kernel.check"] == 3.0


def test_timed_batches_record_a_reference_per_verdict():
    p = _small("deep_binders", SEED)
    verdicts, state = worker.SETUPS[p["workload"]](worker.Tracer(), p)
    tally, ref = worker.Tally(), worker.Reference()
    for _ in range(2):
        worker.run_batch(worker.Tracer(), verdicts, state, tally, ref)
    assert len(tally.refs) == len(tally.times) == 2 * len(verdicts)
    assert all(r > 0 for r in tally.refs)


def test_costs_cancel_a_uniform_slowdown():
    # Two batches of the same three verdicts, the second on a machine
    # running at half speed: the reference pass slows by the same factor.
    times = [0.1, 0.2, 0.4]
    res = {"batch_size": 3, "verdict_times": times + [2 * t for t in times],
           "verdict_refs": [0.001] * 3 + [0.002] * 3, "batch_walls": [0.7, 1.4],
           "peak_rss_mb": 30.0, "failed": 0, "attempted": 6}
    got = run.end_to_end([0.2], res)
    assert got["verdict_ref.p50"] == pytest.approx(200)
    assert got["verdicts_per_kref"] == pytest.approx(1000 * 3 / 700)
    assert got["ok_share"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [f"{name}_s" for name in worker.LAYERS] + list(worker.COUNTS)
    assert [m["name"] for m in spec["per_layer"]] == layer + ["trace.overhead_share"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "church_sum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
