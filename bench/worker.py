"""Worker process of the pimod benchmark.

run.py starts one worker per measurement, single-threaded, from the root
of a checkout with that checkout's ``src`` on PYTHONPATH.  The worker
reads one payload (generated pimod text plus expected answers, see
workloads.py) as JSON on stdin, sets up, prints ``ready``, and then,
unless it only measures set-up, runs the payload's batch of verdicts
until the time is up and prints one JSON result line.

The benchmark reaches pimod only through the public functions of its
modules, and every such call goes through ``Tracer.call``.  The plain
``Tracer`` just makes the call; ``SpanTracer`` also records a span
(layer name, start, end, parent span, verdict) around it.  Neither
patches nor instruments pimod itself.

Usage (normally only through run.py):
    python3 bench/worker.py --mode {setup,timed,traced} --seconds S < payload.json
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import pimod
from pimod.analysis import (check_arity_preserving, check_rules_well_formed,
                            erase_context, erase_signature, erase_term,
                            erase_type, pi_context, stlc_check)
from pimod.corpus import load_cases, read_text
from pimod.decode import adequacy_roundtrip, conservative_invert
from pimod.encode import expected_dk_type, generate, translate, translate_ctx
from pimod.epts import (PApp, PLam, PPi, PSort, PVar, elaborate,
                        elaborate_context, epts_check, epts_nf, erase_to_pts)
from pimod.kernel import check, check_signature
from pimod.morphism import build_phi, verify_morphism
from pimod.rewrite import BETA, DEFAULT_FUEL, Fuel, check_orthogonal, reduce_trace
from pimod.syntax import (parse_epts_file, parse_pts_term, parse_sort_spec_file,
                          parse_theory, render_theory)
from pimod.terms import validate_theory

# Each run completes at least this many verdicts, so that its p90 has at
# least ten samples beyond it.
MIN_VERDICTS = 100

LAYERS = (
    "syntax.parse", "syntax.render",
    "epts.elaborate", "epts.check", "epts.nf",
    "encode.generate", "encode.translate",
    "kernel.check", "kernel.check_signature",
    "rewrite.nf", "rewrite.orthogonal",
    "decode.invert", "decode.roundtrip",
    "analysis.analyze", "analysis.erase",
    "morphism.build_phi", "morphism.verify",
    "terms.validate",
)
COUNTS = (
    "rewrite.steps.beta", "rewrite.steps.sim", "rewrite.nf_nodes",
    "epts.term_nodes", "epts.nf_steps", "encode.image_nodes",
    "encode.theory_constants", "encode.theory_rules", "rewrite.overlaps",
)
MODES = ("finite", "internalized")


# --- tracing ----------------------------------------------------------------------


class Tracer:
    """Calls straight through; the untraced runs use this one."""

    def call(self, layer, fn, *args):
        return fn(*args)

    def begin(self, verdict):
        pass

    def end(self):
        pass

    def count(self, name, n):
        pass

    def nodes(self, name, term):
        pass


class SpanTracer(Tracer):
    """Records spans ``[name, start, end, parent, verdict]`` in memory.

    Term sizes noted with ``nodes`` are counted later, by ``take_counts``,
    so that counting stays outside the traced time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._verdict = None
        self._counts: Counter = Counter()
        self._pending: list = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._verdict])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, layer, fn, *args):
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        self._open(layer)
        try:
            return fn(*args)
        finally:
            self._close()

    def begin(self, verdict):
        self._verdict = verdict
        self._open("verdict")

    def end(self):
        self._close()
        self._verdict = None

    def count(self, name, n):
        self._counts[name] += n

    def nodes(self, name, term):
        self._pending.append((name, term))

    def take_counts(self) -> dict:
        for name, term in self._pending:
            self._counts[name] += term_nodes(term)
        out = {c: self._counts[c] for c in COUNTS}
        self._counts, self._pending = Counter(), []
        return out


def self_times(spans: list[list], first: int = 0) -> dict:
    """Self time per span name over ``spans[first:]``: each span's
    duration minus the part of it covered by its child spans."""
    child = Counter()
    for name, start, end, parent, _ in spans[first:]:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for i in range(first, len(spans)):
        name, start, end, _, _ = spans[i]
        out[name] += end - start - child[i]
    return out


_TERM_FIELDS: dict[type, tuple[str, ...]] = {}


def term_nodes(t) -> int:
    """Node count of a pimod term (any of its frozen-dataclass languages)."""
    n, stack = 0, [t]
    while stack:
        u = stack.pop()
        n += 1
        names = _TERM_FIELDS.get(type(u))
        if names is None:
            names = _TERM_FIELDS[type(u)] = tuple(f.name for f in fields(u))
        for name in names:
            v = getattr(u, name)
            if isinstance(v, tuple):
                stack.extend(x for x in v if is_dataclass(x))
            elif is_dataclass(v):
                stack.append(v)
    return n


# --- expected answers, built without pimod's parser or normalizer ------------------


def church_numeral(n: int):
    """``lam A : Type. lam f : A -> A. lam x : A. f (... (f x))``."""
    body = PVar(0)
    for _ in range(n):
        body = PApp(PVar(1), body)
    return PLam("A", PSort("Type"),
                PLam("f", PPi("_", PVar(0), PVar(1)), PLam("x", PVar(1), body)))


def nested_lambdas(depth: int, var: int):
    """``lam x0 : C. ... lam x<depth> : C. x<var>`` over the context ``C``."""
    t = PVar(depth - var)
    for i in reversed(range(depth + 1)):
        t = PLam(f"x{i}", PVar(i), t)
    return t


# --- church_sum and deep_binders --------------------------------------------------


@dataclass
class Mode:
    spec: object
    enc: object
    ctx: object
    dctx: object
    names: list
    defs: dict
    labels: frozenset
    witness: tuple | None = None   # (erased signature, erased context)


def erasure_setup(theory, dctx):
    return erase_signature(theory), erase_context(theory, dctx)


def erasure_witness(theory, witness, img, want):
    """The image erases to a simply typed term of the erased type."""
    sig, ectx = witness
    pis: set = set()
    erased = erase_term(theory, img, pis)
    return stlc_check({**sig, **pi_context(pis)}, ectx, erased,
                      erase_type(theory, want))


def setup_terms(tr, payload, modes, witness):
    sf = tr.call("syntax.parse", parse_sort_spec_file, payload["sorts"])
    out = {}
    for mode in modes:
        spec = sf.finite if mode == "finite" else sf.internalized
        ef = tr.call("syntax.parse", parse_epts_file, payload["prelude"], spec)
        enc = tr.call("encode.generate", generate, spec)
        tr.count("encode.theory_constants", len(enc.theory.signature))
        tr.count("encode.theory_rules", len(enc.theory.rules))
        ctx = tr.call("epts.elaborate", elaborate_context, spec, ef.assumes)
        dctx = tr.call("encode.translate", translate_ctx, enc, ctx)
        out[mode] = Mode(spec, enc, ctx, dctx, [n for n, _ in ef.assumes],
                         dict(ef.definitions), enc.simulation_labels())
        if witness:
            out[mode].witness = tr.call("analysis.erase", erasure_setup,
                                        enc.theory, dctx)
    return out


def term_verdict(tr, env: Mode, item, expected) -> bool:
    """parse, elaborate, check, translate, kernel-check, normalize on both
    sides, conservatively invert the framework normal form, and compare
    the recovered source term with ``expected``."""
    spec, enc, ctx = env.spec, env.enc, env.ctx
    p = tr.call("syntax.parse", parse_pts_term, item["term"], spec, env.names, env.defs)
    pa = tr.call("syntax.parse", parse_pts_term, item["type"], spec, env.names, env.defs)
    m = tr.call("epts.elaborate", elaborate, spec, ctx, p)
    a = tr.call("epts.elaborate", elaborate, spec, ctx, pa)
    tr.call("epts.check", epts_check, spec, ctx, m, a)
    img = tr.call("encode.translate", translate, enc, m)
    want = tr.call("encode.translate", expected_dk_type, enc, ctx, a)
    tr.call("kernel.check", check, enc.theory, env.dctx, img, want)
    fuel = Fuel(DEFAULT_FUEL)
    source_nf = tr.call("epts.nf", epts_nf, spec, m, fuel)
    normal, trail = tr.call("rewrite.nf", reduce_trace, enc.theory, img, env.labels)
    back = tr.call("decode.invert", conservative_invert, enc, ctx, normal, a)
    witnessed = (env.witness is None
                 or tr.call("analysis.erase", erasure_witness,
                            enc.theory, env.witness, img, want))

    beta = sum(1 for label, _ in trail if label == BETA)
    tr.count("rewrite.steps.beta", beta)
    tr.count("rewrite.steps.sim", len(trail) - beta)
    tr.count("epts.nf_steps", fuel.limit - fuel.remaining)
    tr.nodes("epts.term_nodes", m)
    tr.nodes("encode.image_nodes", img)
    tr.nodes("rewrite.nf_nodes", normal)
    return witnessed and back == source_nf and erase_to_pts(back) == expected


def setup_church_sum(tr, payload):
    modes = setup_terms(tr, payload, MODES, witness=True)
    return [(term_verdict, (modes[it["mode"]], it, church_numeral(it["sum"])))
            for it in payload["items"]], {}


def setup_deep_binders(tr, payload):
    env = setup_terms(tr, payload, ("finite",), witness=False)["finite"]
    return [(term_verdict, (env, it, nested_lambdas(it["depth"], it["var"])))
            for it in payload["items"]], {}


# --- theory_tower -----------------------------------------------------------------


def analyze(theory):
    return check_rules_well_formed(theory) + check_arity_preserving(theory)


def theory_verdict(tr, state, key, spec, notes) -> bool:
    """generate, render, re-parse, then every check a generated theory must
    pass; the only overlaps allowed are the ``notes`` known trivial ones."""
    enc = state[key] = tr.call("encode.generate", generate, spec)
    text = tr.call("syntax.render", render_theory, enc.theory)
    theory = tr.call("syntax.parse", parse_theory, text).theory
    diags = (tr.call("terms.validate", validate_theory, theory)
             + tr.call("kernel.check_signature", check_signature, theory))
    errors = [d for d in tr.call("analysis.analyze", analyze, theory)
              if d.severity == "error"]
    report = tr.call("rewrite.orthogonal", check_orthogonal, theory)
    tr.count("encode.theory_constants", len(theory.signature))
    tr.count("encode.theory_rules", len(theory.rules))
    tr.count("rewrite.overlaps", len(report.problems) + len(report.notes))
    same = ([d.name for d in theory.signature] == [d.name for d in enc.theory.signature]
            and theory.rules == enc.theory.rules)
    return (same and not diags and not errors and not report.problems
            and len(report.notes) == notes)


def morphism_verdict(tr, state, src, dst) -> bool:
    phi = tr.call("morphism.build_phi", build_phi, state[src], state[dst])
    return not tr.call("morphism.verify", verify_morphism, phi)


def roundtrip_verdict(tr, state, key, spec, ctx, term) -> bool:
    m = tr.call("epts.elaborate", elaborate, spec, ctx, term)
    tr.nodes("epts.term_nodes", m)
    return not tr.call("decode.roundtrip", adequacy_roundtrip, state[key], ctx, m)


def bad_theory_verdict(tr, text, bad) -> bool:
    theory = tr.call("syntax.parse", parse_theory, text, bad["file"]).theory
    diags = tr.call("analysis.analyze", check_arity_preserving, theory)
    return [(d.code, d.subject) for d in diags if d.severity == "error"] \
        == [(bad["code"], bad["subject"])]


def setup_theory_tower(tr, payload):
    state: dict = {}
    verdicts = []
    for t, tower in enumerate(payload["towers"]):
        sf = tr.call("syntax.parse", parse_sort_spec_file, tower["sorts"])
        judged = []
        for mode in MODES:
            spec = sf.finite if mode == "finite" else sf.internalized
            key = f"tower{t}/{mode}"
            ef = tr.call("syntax.parse", parse_epts_file, tower["judgments"], spec)
            ctx = tr.call("epts.elaborate", elaborate_context, spec, ef.assumes)
            verdicts.append((theory_verdict, (state, key, spec, tower["notes"][mode])))
            judged += [(roundtrip_verdict, (state, key, spec, ctx, j.term))
                       for j in ef.judgments]
        verdicts.append((morphism_verdict,
                         (state, f"tower{t}/finite", f"tower{t}/internalized")))
        verdicts += judged

    bundled = payload["bundled"]
    for case in tr.call("syntax.parse", load_cases):
        verdicts.append((theory_verdict,
                         (state, case.label, case.spec, bundled["notes"][case.label])))
    for corpus in bundled["morphisms"]:
        verdicts.append((morphism_verdict,
                         (state, f"{corpus}/finite", f"{corpus}/internalized")))
    bad = bundled["bad"]
    verdicts.append((bad_theory_verdict, (read_text(bad["file"]), bad)))
    return verdicts, state


SETUPS = {
    "church_sum": setup_church_sum,
    "deep_binders": setup_deep_binders,
    "theory_tower": setup_theory_tower,
}


# --- running ----------------------------------------------------------------------


REFERENCE_EVERY_S = 0.1
REFERENCE_PASSES = 3


@dataclass(frozen=True)
class _Ref:
    head: str
    args: tuple


def reference_pass():
    """A fixed piece of pure-Python work of the kind pimod does: build
    frozen-dataclass trees, hash them, look them up, and walk them with
    isinstance checks.  It never touches pimod, so a change to pimod
    leaves its time alone."""
    t, seen = _Ref("z", ()), {}
    for i in range(60):
        t = _Ref("s", (t,)) if i % 3 else _Ref("p", (t, _Ref("z", ())))
        seen[t] = i
    n, stack = 0, [t]
    while stack:
        u = stack.pop()
        n += isinstance(u, _Ref) and u in seen
        stack.extend(u.args)
    return n


class Reference:
    """Times ``reference_pass`` (fastest of REFERENCE_PASSES) at most every
    REFERENCE_EVERY_S; ``last`` is the latest such time."""

    def __init__(self):
        self.last = None
        self._at = float("-inf")

    def refresh(self):
        now = time.perf_counter()
        if now - self._at < REFERENCE_EVERY_S:
            return
        best = float("inf")
        for _ in range(REFERENCE_PASSES):
            t0 = time.perf_counter()
            reference_pass()
            best = min(best, time.perf_counter() - t0)
        self.last, self._at = best, time.perf_counter()


@dataclass
class Tally:
    times: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    failed: int = 0
    errors: Counter = field(default_factory=Counter)


def run_batch(tr, verdicts, state, tally: Tally, ref: Reference | None = None) -> float:
    """One pass over the batch; returns its wall time.  A verdict that
    raises, whatever the exception, or gives a wrong answer is failed."""
    state.clear()
    start = time.perf_counter()
    for i, (fn, args) in enumerate(verdicts):
        if ref is not None:
            ref.refresh()
            tally.refs.append(ref.last)
        tr.begin(i)
        t0 = time.perf_counter()
        try:
            ok = fn(tr, *args)
        except Exception as e:   # every failure is counted, none ends the run
            ok = False
            tally.errors[type(e).__name__] += 1
        tally.times.append(time.perf_counter() - t0)
        tr.end()
        if not ok:
            tally.failed += 1
    return time.perf_counter() - start


def timed_phase(verdicts, state, seconds: float) -> dict:
    """Whole batches until ``seconds`` have passed and MIN_VERDICTS are done."""
    tr, tally, walls, ref = Tracer(), Tally(), [], Reference()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(tally.times) < MIN_VERDICTS):
        walls.append(run_batch(tr, verdicts, state, tally, ref))
    return {"batch_size": len(verdicts), "batch_walls": walls,
            "verdict_times": tally.times, "verdict_refs": tally.refs,
            "attempted": len(tally.times),
            "failed": tally.failed, "errors": dict(tally.errors)}


def traced_phase(tracer: SpanTracer, setup_layers, setup_counts,
                 verdicts, state, seconds: float) -> dict:
    """Rounds of one untraced and one traced pass over the batch.

    A layer's figure is its set-up self time plus its median self time
    per traced batch; counts are set-up plus one batch, and must repeat
    exactly in every traced batch.
    """
    plain, tally = Tracer(), Tally()
    untraced, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_batch(plain, verdicts, state, tally))
        first = len(tracer.spans)
        traced.append(run_batch(tracer, verdicts, state, tally))
        layers.append(self_times(tracer.spans, first))
        counts.append(tracer.take_counts())
    per_layer = {name: setup_layers[name] + statistics.median(b[name] for b in layers)
                 for name in LAYERS}
    return {
        "batch_size": len(verdicts), "rounds": len(traced),
        "attempted": len(tally.times), "failed": tally.failed,
        "errors": dict(tally.errors),
        "layers": per_layer,
        "glue_s": setup_layers["verdict"] + statistics.median(b["verdict"] for b in layers),
        "counts": {c: setup_counts[c] + counts[0][c] for c in COUNTS},
        "counts_repeat": all(c == counts[0] for c in counts),
        "overhead_share": statistics.median(traced) / statistics.median(untraced) - 1,
        "spans": [[n, s - tracer.spans[0][1], e - tracer.spans[0][1], p, v]
                  for n, s, e, p, v in tracer.spans],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(pimod.__file__).resolve().parents:
        print(f"worker: imported pimod from {pimod.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    payload = json.load(sys.stdin)
    tracer = SpanTracer() if args.mode == "traced" else Tracer()
    verdicts, state = SETUPS[payload["workload"]](tracer, payload)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    gc.collect()
    if args.mode == "timed":
        result = timed_phase(verdicts, state, args.seconds)
    else:
        result = traced_phase(tracer, self_times(tracer.spans), tracer.take_counts(),
                              verdicts, state, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
