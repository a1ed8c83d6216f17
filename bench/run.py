#!/usr/bin/env python3
"""zxexact benchmark: seeded verdict workloads, end-to-end and per-layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: a closed loop (one caller,
no threads; the next verdict starts when the last one returns) runs whole
input blocks until ``--seconds`` have passed, and ``setup_s`` is the median
of several fresh interpreters that import zxexact and build the inputs.
``--trace 1`` runs a fixed number of blocks with span wrappers installed and
reports the per-layer metrics, so its counts repeat exactly for a seed; it
runs the same blocks again untraced to report the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON object of notes (metadata, tail percentile, per-run details).
Both are also written to ``.bench_out/`` together with the span file of a
traced run.  Only this process and its set-up children are measured; no
machine setting is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
MACHINE_NOTE = ("measured as an ordinary process: no cache dropping, no CPU pinning, "
                "no cgroup or other machine setting changed")
# ROADMAP baseline for the sweep (Python 3.11, 2 cores): scalar multiply at
# M=8 on captured operands, and instances per second over criterion 01.
BASELINE_MUL_US = 4.4
BASELINE_SWEEP_PER_S = 2300.0


def _import_zxexact() -> None:
    """Import zxexact from this checkout's ``src`` and nowhere else."""
    if not (SRC / "zxexact" / "__init__.py").is_file():
        raise SystemExit(f"error: no zxexact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zxexact

    if Path(zxexact.__file__).resolve().parent != (SRC / "zxexact").resolve():
        raise SystemExit(f"error: zxexact imported from {zxexact.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Pass:
    """Verdicts, wrong answers and per-verdict latencies of one loop."""

    def __init__(self):
        self.verdicts = 0
        self.failed = 0
        self.busy_ns = 0
        # compact, so the samples of a faster program add little to peak_rss_mb
        self.latencies_ms = array("d")
        self.block_busy_s: list[float] = []
        self.errors: list[str] = []

    def run_block(self, workload, cases, tracer=None) -> None:
        before = self.busy_ns
        for case in cases:
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    result = workload.run(case)
                else:
                    result = tracer.traced_call("bench.verdict", workload.run, case)
            except Exception as exc:  # a crash is a wrong verdict, not the end of the run
                result = exc
                self._note(exc)
            dt = time.perf_counter_ns() - t0
            try:
                n, wrong = workload.check(case, result)
            except Exception as exc:  # an answer of unexpected shape is a wrong verdict
                n, wrong = 1, 1
                self._note(exc)
            self.verdicts += n
            self.failed += wrong
            self.busy_ns += dt
            self.latencies_ms.extend([dt / n / 1e6] * n)
        self.block_busy_s.append((self.busy_ns - before) / 1e9)

    def _note(self, exc: Exception) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def busy_s(self) -> float:
        return self.busy_ns / 1e9


def timed_loop(workload, seconds: float, setup=None) -> tuple[Pass, float, list[float]]:
    """Run whole blocks until ``seconds`` of wall time have passed.

    ``setup``, when given, is a callable timing one fresh-interpreter set-up;
    it is called SETUP_RUNS times, spread between blocks over the run so the
    samples do not all land in one slow or fast spell of the host.  Its wall
    time is not charged to the ``seconds`` of the loop.
    """
    p = Pass()
    setups: list[float] = []
    t0 = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        if setup is not None and len(setups) < SETUP_RUNS and (
                time.perf_counter() - t0 - paused >= len(setups) * seconds / SETUP_RUNS):
            setups.append(setup())
            paused += setups[-1]
        p.run_block(workload, workload.block(i))
        i += 1
        if time.perf_counter() - t0 - paused >= seconds:
            break
    while setup is not None and len(setups) < SETUP_RUNS:
        setups.append(setup())
    return p, time.perf_counter() - t0 - paused, setups


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter that imports zxexact, starts the
    CLI and builds the workload's first block."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
    return elapsed


def setup_only(workload_cls, seed: int) -> None:
    import zxexact.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["rule", "list"])
    workload_cls(seed).block(0)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def source_loc() -> dict[str, int]:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "zxexact").glob("*.py"))}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "zxexact").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "loc": source_loc(),
        "machine_settings": MACHINE_NOTE,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload_cls, args) -> tuple[dict, dict]:
    workload = workload_cls(args.seed)
    p, wall, setups = timed_loop(workload, args.seconds,
                                 lambda: measure_setup(args.workload, args.seed))
    value, beyond = tail(p.latencies_ms, workload_cls.tail_pct)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (p.verdicts / p.busy_s, "1/s"),
        "verdict_p50_ms": (statistics.median(p.latencies_ms), "ms"),
        "verdict_tail_ms": (value, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {
        "verdict_tail": {"percentile": workload_cls.tail_pct, "samples": len(p.latencies_ms),
                         "samples_beyond": beyond},
        "failed_frac": p.failed / max(1, p.verdicts),
        "block_busy_s": p.block_busy_s,
        "busy_s": p.busy_s,
        "wall_s": wall,
        "setup_runs_s": setups,
        "errors": p.errors,
        "verdicts_per_s_basis": "verdicts per second of time inside zxexact calls",
    }
    return {"attempted": p.verdicts, "failed": p.failed, "metrics": metrics}, notes


def traced(workload_cls, args) -> tuple[dict, dict]:
    from tracer import LAYERS, Tracer, layer_module, replay_scalar_ops

    workload = workload_cls(args.seed)
    Pass().run_block(workload, workload.block(0))  # warm caches before either pass
    blocks = range(1, 1 + workload_cls.trace_blocks)
    counters = ("mutations_attempted", "mutations_rejected")
    for c in counters:
        if hasattr(workload, c):
            setattr(workload, c, 0)

    tracer = Tracer(args.seed)
    tracer.install()
    try:
        traced_pass = Pass()
        for i in blocks:
            traced_pass.run_block(workload, workload.block(i), tracer)
        # one CLI command per workload, and the script loads of replay, so
        # the cli and bundled layers are traced too
        cli_args = [str(ROOT / a) if a.startswith("src/") else a for a in workload_cls.cli_args]
        with contextlib.redirect_stdout(io.StringIO()):
            cli_code = tracer.traced_call("bench.cli", layer_module("cli").run, cli_args)
        for name in getattr(workload_cls, "traced_loads", ()):
            tracer.traced_call("bench.load", layer_module("bundled").load_bundled, name)
    finally:
        tracer.uninstall()
    mutations = {c: getattr(workload, c, 0) for c in counters}
    plain = Pass()
    for i in blocks:
        plain.run_block(workload, workload.block(i))

    interp = layer_module("interpret")
    plan_s, peak_rank, steps, nodes_max = 0.0, 0, 0, 0
    plan = getattr(interp, "plan_contraction", None)
    for d, rank in tracer.interpreted:
        nodes_max = max(nodes_max, len(d.nodes))
        if plan is None:
            continue
        t0 = time.perf_counter()
        try:
            cp = plan(d) if rank is None else plan(d, rank)
        except interp.ResourceLimitError:
            continue
        finally:
            plan_s += time.perf_counter() - t0
        peak_rank = max(peak_rank, cp.peak_rank)
        steps += len(cp.steps)
    op_us = replay_scalar_ops(tracer.samples)

    agg = tracer.aggregate()

    def fn(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    inst_calls = fn("rules.instantiate", "calls")
    m = {
        "cyclotomic.mul_calls": (tracer.op_calls["mul"], "count"),
        "cyclotomic.add_calls": (tracer.op_calls["add"], "count"),
        "cyclotomic.eq_calls": (tracer.op_calls["eq"], "count"),
        "cyclotomic.mul_us": (op_us["mul"], "us"),
        "cyclotomic.add_us": (op_us["add"], "us"),
        "cyclotomic.eq_us": (op_us["eq"], "us"),
        "cyclotomic.max_modulus": (tracer.max_modulus, "count"),
        "interpret.calls": (fn("interpret.interpret", "calls"), "count"),
        "interpret.s": (fn("interpret.interpret", "s"), "s"),
        "interpret.nodes_max": (nodes_max, "count"),
        "interpret.peak_rank": (peak_rank, "count"),
        "interpret.contract_steps": (steps, "count"),
        "interpret.plan_s": (plan_s, "s"),
        "interpret.compare_calls": (fn("interpret.matrix_compare", "calls"), "count"),
        "interpret.compare_s": (fn("interpret.matrix_compare", "s"), "s"),
        "interpret.tensor_cache_entries": (len(getattr(interp, "_TENSOR_CACHE", ())), "count"),
        "rules.instantiate_calls": (inst_calls, "count"),
        "rules.instantiate_s": (fn("rules.instantiate", "s"), "s"),
        "rules.check_soundness_s": (fn("rules.check_soundness", "s"), "s"),
        "rules.interprets_per_instance": (
            fn("interpret.interpret", "calls") / inst_calls if inst_calls else 0.0, "ratio"),
        "diagram.validate_s": (fn("diagram.validate_diagram", "s"), "s"),
        "derive.steps": (fn("derive.apply_step", "calls"), "count"),
        "derive.apply_step_s": (fn("derive.apply_step", "s"), "s"),
        "derive.validate_embedding_s": (fn("derive.validate_embedding", "s"), "s"),
        "derive.paranoid_interpret_s": (
            tracer.time_in("interpret.interpret", "derive.check_derivation"), "s"),
        "derive.mutations_rejected_ratio": (
            mutations["mutations_rejected"] / mutations["mutations_attempted"]
            if mutations["mutations_attempted"] else 0.0, "ratio"),
        "witness.sqrt2_s": (fn("witness.witness_sqrt2", "s"), "s"),
    }
    loc = source_loc()
    for layer in LAYERS:
        names = [n for n in agg if n.startswith(layer + ".")]
        m[f"{layer}.span_calls"] = (sum(agg[n]["calls"] for n in names), "count")
        m[f"{layer}.self_s"] = (sum(agg[n]["self_s"] for n in names), "s")
        m[f"{layer}.loc"] = (loc.get(layer, 0), "lines")
    overhead = traced_pass.busy_s / plain.busy_s - 1 if plain.busy_s else 0.0
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(span_file)
    notes = {
        "traced_blocks": len(blocks),
        "traced_busy_s": traced_pass.busy_s,
        "untraced_busy_s": plain.busy_s,
        "untraced_verdicts_per_s": plain.verdicts / plain.busy_s if plain.busy_s else 0.0,
        "untraced_failed": plain.failed,
        "span_file": str(span_file.relative_to(ROOT)),
        "time_basis": ("function metrics (<layer>.<fn>_s, interpret.s) are inclusive span "
                       "time; <layer>.self_s is span time minus child spans; scalar "
                       "operators are counted, not spanned, so their time is in the "
                       "caller's self time"),
        "cli_args": workload_cls.cli_args,
        "cli_exit": cli_code,
        "errors": traced_pass.errors,
    }
    if args.workload == "sweep":
        notes["roadmap_baseline"] = baseline_check(tracer.samples["mul"],
                                                   notes["untraced_verdicts_per_s"])
    failed = traced_pass.failed + int(cli_code != 0)
    return {"attempted": traced_pass.verdicts + 1, "failed": failed, "metrics": m}, notes


def _terms(x) -> int | None:
    """Number of stored terms of a scalar, when its representation has them."""
    terms = getattr(x, "_terms", None)
    return len(terms) if isinstance(terms, dict) else None


def baseline_check(mul_pairs: list, per_s: float) -> dict:
    """Compare the sweep's traced numbers with the ROADMAP baseline.

    The M=8 multiplies are replayed as a whole and split by the operands'
    stored term counts (single-term times single-term, and the rest), so a
    gap is explained by measured figures rather than by assumption.
    """
    from tracer import replay_scalar_ops

    m8 = [(a, b) for a, b in mul_pairs if getattr(a, "modulus", 0) == 8]
    groups = {"all": m8, "single_term": [], "multi_term": []}
    split = all(_terms(a) is not None and _terms(b) is not None for a, b in m8)
    if split:
        for a, b in m8:
            groups["single_term" if _terms(a) == _terms(b) == 1 else "multi_term"].append((a, b))
    us = {k: (replay_scalar_ops({"mul": v})["mul"] if v else None) for k, v in groups.items()}
    out = {
        "mul_us_m8": us["all"], "mul_pairs_m8": len(m8), "baseline_mul_us": BASELINE_MUL_US,
        "mul_gap": us["all"] / BASELINE_MUL_US - 1 if us["all"] else None,
        "mul_us_m8_by_operands": {k: {"us": us[k], "pairs": len(groups[k])}
                                  for k in ("single_term", "multi_term")} if split else None,
        "untraced_verdicts_per_s": per_s, "baseline_per_s": BASELINE_SWEEP_PER_S,
        "per_s_gap": per_s / BASELINE_SWEEP_PER_S - 1,
    }
    explain = []
    if out["mul_gap"] is not None and abs(out["mul_gap"]) > 0.25:
        single, multi = us["single_term"], us["multi_term"]
        if single is not None and multi is not None and single < multi:
            share = len(groups["multi_term"]) / len(m8)
            explain.append(
                f"measured: single-term pairs take {single:.2f} us and multi-term pairs "
                f"{multi:.2f} us, and multi-term pairs are {share:.0%} of the sampled "
                "multiplies, so the median over all pairs is set by the operand mix; the "
                "mix of the ROADMAP's captured pairs is not recorded")
            if single > BASELINE_MUL_US * 1.25:
                explain.append(
                    "unverified: even single-term pairs are more than 25% slower than the "
                    "baseline, which operand size does not explain")
        else:
            explain.append("unverified: operand term counts are not available or do not "
                           "explain the gap")
    if abs(out["per_s_gap"]) > 0.25:
        explain.append(
            "unverified: verdicts_per_s counts only time inside zxexact calls and covers "
            "one rule set per block; the baseline divides the wall time of the whole "
            "criterion-01 test; the cause of the gap was not measured")
    out["explanation"] = explain
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import zxexact and build the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_zxexact()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        setup_only(workload_cls, args.seed)
        return 0
    result, notes = traced(workload_cls, args) if args.trace else end_to_end(workload_cls, args)
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    notes = {"meta": metadata(args), **notes}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"notes": notes, "result": final}, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps({"notes": notes}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
