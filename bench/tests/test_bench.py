"""Tests of the benchmark itself: known answers, wrong answers fed in on
purpose, seeded inputs, exact repetition of traced counts, and the output
contract.  Run with ``python3 -m pytest bench/tests``."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads as W
from zxexact.diagram import PiRational

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _failed_frac(workload, cases) -> float:
    p = run.Pass()
    p.run_block(workload, cases)
    return p.failed / p.verdicts


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_first_block_is_all_correct(name):
    workload = W.WORKLOADS[name](3)
    cases = workload.block(0)
    if name == "circuits":
        cases = [c for c in cases if len(c.diagram.nodes) <= 80 or c.oracle]
    if name == "sweep":  # S1 is checked at a smaller arity below
        cases = [c for c in cases if getattr(c, "schema", "") != "S1"]
    assert _failed_frac(workload, cases) == 0


def test_sweep_entries_are_verdicts():
    sweep = W.Sweep(3)
    case = W.SuiteCase("ZX", "S1", 5, max_arity=1)
    assert case.expected_entries() == 5 * 64 * 4 + 20
    p = run.Pass()
    p.run_block(sweep, [case])
    assert (p.verdicts, p.failed) == (case.expected_entries(), 0)
    assert len(p.latencies_ms) == p.verdicts


def test_corrupted_rule_instance_raises_failed_frac():
    sweep = W.Sweep(3)
    good = [W.SuiteCase("ZX", "K2", 5)]
    corrupted = W.sup_negative_controls()[0]
    corrupted.expect_sound = True  # SUP_3 at alpha=0 scaled by 9 is not sound
    assert _failed_frac(sweep, good) == 0
    assert _failed_frac(sweep, good + [corrupted]) > 0


def test_sweep_skips_and_missing_entries_are_failures(monkeypatch):
    sweep = W.Sweep(3)
    case = W.SuiteCase("ZX_cyclo", "H", 5)
    report = sweep.run(case)
    assert sweep.check(case, report) == (case.expected_entries(), 0)
    report.entries.pop()  # a report that misses part of the population
    assert sweep.check(case, report) == (case.expected_entries(), 1)
    monkeypatch.setattr(W, "MAX_RANK", 2)  # rank-cap hits come back as SKIP entries
    assert _failed_frac(sweep, [case]) > 0


def test_mutated_script_marked_accept_raises_failed_frac():
    replay = W.Replay(3)
    cases = replay.block(0)
    mutated = next(c for c in cases if c.mutation == "embedding")
    mutated.expect = "accept"
    assert _failed_frac(replay, cases) > 0


def test_replay_tiny_rank_cap_raises_failed_frac(monkeypatch):
    replay = W.Replay(3)
    cases = [c for c in replay.block(0) if c.expect == "accept"]
    assert _failed_frac(replay, cases) == 0
    monkeypatch.setattr(W, "MAX_RANK", 3)
    assert _failed_frac(replay, cases) > 0


def test_replay_skipped_paranoid_interpret_is_a_failure():
    derive = W.zx("derive")
    replay = W.Replay(3)
    case = next(c for c in replay.block(0) if c.expect == "accept")
    notes = ["step 0: planned rank 17 exceeds cap 16"]
    assert replay.check(case, derive.Verdict(True))[1] == 0
    assert replay.check(case, derive.Verdict(True, paranoid_notes=notes))[1] == 1


def test_replay_mutations_are_rejected_at_the_expected_step():
    replay = W.Replay(4)
    cases = [c for c in replay.block(1) if c.mutation]
    assert {c.mutation for c in cases} == {"binding", "embedding", "final_iso"}
    assert _failed_frac(replay, cases) == 0
    assert replay.mutations_rejected == replay.mutations_attempted == len(cases)


def test_wide_modulus_oracle_disagreement_is_a_failure():
    wide = W.WideModulus(3)
    lie = W.RuleCase("SUPn", {"n": 5, "alpha": PiRational(0)}, factor=25, expect_sound=True)
    assert _failed_frac(wide, [lie]) == 1
    assert W.supn_oracle(13, Fraction(1, 12))
    assert not W.supn_oracle(3, Fraction(0), 9)


def test_circuit_oracle_catches_a_wrong_diagram():
    circuits = W.Circuits(3)
    case = next(c for c in circuits.block(0) if c.exact and c.qubits == 3)
    case.oracle = True
    assert _failed_frac(circuits, [case]) == 0
    case.gates = case.gates + [("x", 0, PiRational(1))]  # diagram no longer matches
    assert _failed_frac(circuits, [case]) == 1


def test_inputs_follow_the_seed():
    assert W.Sweep(7).block(3) == W.Sweep(7).block(3)
    assert W.Sweep(7).block(3) != W.Sweep(8).block(3)
    a, b = W.Circuits(7).block(2), W.Circuits(7).block(2)
    assert [c.gates for c in a] == [c.gates for c in b]


def test_tail_is_nearest_rank():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat, 90.0) == (90.0, 10)
    assert run.tail(lat, 99.0) == (99.0, 1)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["replay", "sweep"])
def test_traced_counts_repeat_exactly(name):
    args = ["--workload", name, "--seed", "11", "--trace", "1"]
    first, second = _last_json(_bench(*args)), _last_json(_bench(*args))
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "lines")}
    assert "cyclotomic.mul_calls" in counts and "interpret.calls" in counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    assert first["metrics"]["interpret.calls"]["value"] > 0


def test_output_contract_names_every_metric():
    e2e = _last_json(_bench("--workload", "replay", "--seed", "2", "--seconds", "1",
                            "--trace", "0"))
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert e2e["metrics"][m["name"]]["unit"] == m["unit"]
        assert e2e["metrics"][m["name"]]["value"] > 0
    layer = _last_json(_bench("--workload", "replay", "--seed", "2", "--seconds", "1",
                              "--trace", "1"))
    assert set(layer["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert layer["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
