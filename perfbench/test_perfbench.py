"""The benchmark's own tests: python3 -m pytest -q perfbench

They run the benchmark itself, so they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
EXACT_COUNTS = ("decoders.f_node_elems", "core.bitrev_calls", "construction.ga_calls",
                "evolution.mc_runs", "montecarlo.simulate_calls")


def run_bench(workload, seed, seconds, trace, cwd=workloads.ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_exact_counts(workload):
    runs = [run_bench(workload, 0, 1, 1)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    counts = [{name: r["metrics"][name]["value"] for name in EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ["evaluate-sc-n1024", "evaluate-scl-n128"])
def test_held_out_seed_matches_pins_at_every_point(workload):
    record, result = run_bench(workload, 1, 30, 0)
    assert record["inputs"]["pinned_seed"]
    assert len(record["op_wall_s"]) >= 3  # every point ran
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def test_pin_mismatch_is_a_failed_check(tmp_path):
    w = workloads.EvaluateSCL(0, tmp_path)
    w.k = 64
    blocks, errs, bits = w.pins["2.0"]
    row = ["2.0", str(blocks), str(errs), str(bits), repr(errs / blocks),
           repr(bits / (blocks * w.k)), str(w.mc_seed)]
    assert w._check(2.0, [row]) == []
    bad = row[:3] + [str(bits + 1), row[4], repr((bits + 1) / (blocks * w.k)), row[6]]
    assert any("pinned" in p for p in w._check(2.0, [bad]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search-n64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _benchmark():
    return json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
