#!/usr/bin/env python3
"""pimod benchmark: one workload, one seed, one JSON result line.

Run from the root of a pimod checkout:

    python3 bench/run.py --workload church_sum --seed 1 --seconds 20 --trace 0

The seed only picks the generated pimod text (workloads.py); pimod runs
in fresh single-threaded worker processes (worker.py) that see only that
text.  The load is a closed loop: one client, one process, one thread.

``--trace 0`` starts SETUP_SAMPLES workers one after another: all but the
middle one only set up, the middle one then runs whole batches of
verdicts for ``--seconds`` (and at least worker.MIN_VERDICTS verdicts),
timing a fixed reference pass between verdicts, and the end-to-end
metrics come from these.  ``--trace 1`` starts one worker that alternates untraced and
traced passes, reports the per-layer metrics, and writes its spans to
``bench/out/``.  Either way every verdict is checked against an answer
the benchmark worked out itself, and the last line printed is
``{"correct", "attempted", "failed", "metrics"}``.  Run metadata goes on
the line before, never into the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, payload

BENCH = Path(__file__).resolve().parent

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s", "verdicts_per_kref": "1/kref",
    "verdict_ref.p50": "ref", "verdict_ref.p90": "ref",
    "peak_rss_mb": "MB", "ok_share": "share",
}


class BenchError(Exception):
    pass


def worker_command(mode: str, seconds: float) -> list[str]:
    """The worker's command line: the mode and the time, never the seed."""
    return [sys.executable, str(BENCH / "worker.py"),
            "--mode", mode, "--seconds", str(seconds)]


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: Path, data: bytes, mode: str, seconds: float) -> tuple[float, dict | None]:
    """Start one worker, feed it the payload and wait for it.

    Returns the set-up time (from just before the process starts to its
    ``ready`` line) and the worker's result, None for a set-up-only run.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(worker_command(mode, seconds), cwd=root,
                            env=worker_env(root / "src"),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(data)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or ready.strip() != b"ready":
        raise BenchError(f"{mode} worker failed with exit code {code}")
    return setup_s, (json.loads(out) if mode != "setup" else None)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(root: Path, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "src_pimod_lines": sum(len(p.read_text().splitlines())
                               for p in sorted((root / "src" / "pimod").glob("*.py"))),
    }


def end_to_end(setups: list[float], res: dict) -> dict:
    """Verdict costs in reference passes: each verdict's wall time divided
    by the time of the reference pass timed just before it, then each
    verdict's median over the run's batches.  The shared machine's speed
    drifts by up to 1.9x for minutes at a time; the reference slows with
    it, so the ratio stays put where the seconds do not (see NOTES.md)."""
    n = res["batch_size"]
    costs = [t / r for t, r in zip(res["verdict_times"], res["verdict_refs"])]
    per_verdict = [statistics.median(costs[i::n]) for i in range(n)]
    return {
        "setup_s": statistics.median(setups),
        "verdicts_per_kref": 1000 * n / sum(per_verdict),
        "verdict_ref.p50": statistics.median(per_verdict),
        "verdict_ref.p90": statistics.quantiles(per_verdict, n=10)[-1],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": 1 - res["failed"] / res["attempted"],
    }


def wall_clock(res: dict) -> dict:
    """The same figures in plain wall-clock seconds, for the metadata."""
    n = res["batch_size"]
    per_verdict = [statistics.median(res["verdict_times"][i::n]) for i in range(n)]
    return {
        "verdicts_per_s": n / statistics.median(res["batch_walls"]),
        "verdict_s.p50": statistics.median(per_verdict),
        "verdict_s.p90": statistics.quantiles(per_verdict, n=10)[-1],
        "reference_pass_s": statistics.median(res["verdict_refs"]),
    }


def per_layer(res: dict) -> dict:
    metrics = {f"{name}_s": (t, "s") for name, t in res["layers"].items()}
    metrics.update({name: (n, "count") for name, n in res["counts"].items()})
    metrics["trace.overhead_share"] = (res["overhead_share"], "share")
    return metrics


def write_trace(args, meta: dict, res: dict) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"meta": meta, "span_fields": [
        "name", "start_s", "end_s", "parent", "verdict"], "spans": res["spans"]}))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pimod" / "__init__.py").is_file():
        print("bench: no src/pimod here; run from the root of a pimod checkout",
              file=sys.stderr)
        return 2
    data = json.dumps(payload(args.workload, args.seed)).encode()
    meta = metadata(root, args)

    try:
        if args.trace:
            _, res = spawn(root, data, "traced", args.seconds)
            metrics = per_layer(res)
            meta.update(rounds=res["rounds"], glue_s=res["glue_s"],
                        counts_repeat=res["counts_repeat"],
                        trace_file=str(write_trace(args, meta, res).relative_to(root)))
        else:
            # Set-up samples are taken before and after the timed run, so
            # that their median spans the machine's slow and fast phases.
            setups = [spawn(root, data, "setup", 0)[0]
                      for _ in range(SETUP_SAMPLES // 2)]
            setup_s, res = spawn(root, data, "timed", args.seconds)
            setups += [setup_s] + [spawn(root, data, "setup", 0)[0]
                                   for _ in range(SETUP_SAMPLES - len(setups) - 1)]
            metrics = {k: (v, END_TO_END[k])
                       for k, v in end_to_end(setups, res).items()}
            meta.update(setup_samples=len(setups),
                        verdict_samples=len(res["verdict_times"]),
                        batch_s=res["batch_walls"], wall_clock=wall_clock(res))
    except (BenchError, OSError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    meta.update(batch_size=res["batch_size"], errors=res["errors"])
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
