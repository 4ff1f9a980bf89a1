"""Self-test of the benchmark in its tiny mode (sf 0.01).

Every workload runs once untraced and once traced; each run must pass
all of its correctness checks and print every metric BENCHMARK.json
names, with its unit.  Takes about five minutes:

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics each workload must measure (the rest may read 0 there)
EXERCISED = {
    "s2t-sf01": ["index.probes", "voting.vote_rows", "segmentation.subtrajs",
                 "sampling.sync_evals", "clustering.sync_evals", "spark.tasks", "s2t.ari"],
    "retratree-sf01": ["build.s2t_calls", "insert.pieces", "qut.full_chunks",
                       "qut.partial_chunks", "qut.baseline_s", "storage.writes",
                       "storage.reads", "hermes.sql_s"],
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        assert result["metrics"][s["name"]]["unit"] == s["unit"]
    must_be_positive = EXERCISED[workload] if trace else [s["name"] for s in specs]
    for name in must_be_positive:
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert not out.stdout.strip()
