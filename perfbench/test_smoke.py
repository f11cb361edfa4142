"""Smoke test of the benchmark: every workload at its tiny size.

Checks that each run emits every metric named in BENCHMARK.json with its
unit, that the sweeps fail no case, that the traced run shows the predicted
zero call counts and repeatable exact counters, and that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SWEEPS = ("identities", "faces", "degenerations")


def run(workload, trace, seed=101, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record_line = next(line for line in lines if line.strip().startswith("record: "))
    record = json.loads((cwd / record_line.split("record: ", 1)[1]).read_text())
    return json.loads(lines[-1]), record


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, record = run(workload, trace=0)
    assert result["correct"]
    assert result["attempted"] >= record["cases"]
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload in SWEEPS:
        assert result["failed"] == 0
    else:
        # only the oversize-oracle document fails, once per pass
        assert result["failed"] * record["cases"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    result, record = run(workload, trace=1)
    assert result["correct"]
    assert_metrics(result, BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload in ("identities", "faces"):
        assert metrics["linalg.det.calls"] == 0
    if workload in ("faces", "degenerations"):
        assert metrics["residues.check_component_relations.calls"] == 0
    assert record["counts_repeat"]


def test_exact_counts_repeat_across_runs():
    _, first = run("degenerations", trace=1, seed=7)
    _, second = run("degenerations", trace=1, seed=7)
    assert first["exact_counts"][0] == second["exact_counts"][0]
    assert first["exact_counts"][0]["linalg.det.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
