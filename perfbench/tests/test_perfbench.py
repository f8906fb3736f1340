"""The benchmark's own tests: tiny-deck dry runs and planted failures.

    python -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` end to end in a subprocess from the
repository root, on 6^3 decks so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--deck-edge", "6", "--seconds", "1"]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_dry_run_prints_every_metric_with_its_unit(trace, group):
    proc = bench("--workload", "all", "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    for workload in SPEC["workloads"]:
        assert f"== {workload['name']} seed=0 trace={trace}" in proc.stdout
    for metric in SPEC[group]:
        rows = [line.split() for line in proc.stdout.splitlines()
                if line.split()[:2] == [metric["name"], metric["unit"]]]
        assert len(rows) == len(SPEC["workloads"]), metric["name"]
    doc = last_json(proc.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[group]}


def test_end_to_end_metrics_are_positive():
    proc = bench("--workload", "cluster-2x1", *TINY)
    assert proc.returncode == 0, proc.stderr
    values = [v["value"] for v in last_json(proc.stdout)["metrics"].values()]
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", ["fused-16", "serve-pool",
                                      "cluster-2x1"])
def test_planted_flux_mismatch_fails_the_run(workload):
    proc = bench("--workload", workload, "--plant", "flux-mismatch", *TINY)
    assert proc.returncode != 0
    assert "CHECK FAILED" in proc.stdout
    assert last_json(proc.stdout)["correct"] is False


def test_planted_failed_job_fails_the_run():
    proc = bench("--workload", "serve-pool", "--plant", "failed-job", *TINY)
    assert proc.returncode != 0
    doc = last_json(proc.stdout)
    assert doc["correct"] is False and doc["failed"] >= 1


def test_refuses_to_run_without_a_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "recorded.json").write_text(
        (ROOT / "perfbench" / "recorded.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fused-16",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_job_tail_is_the_highest_percentile_with_ten_samples_beyond():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    assert run.nearest_rank_tail([float(v) for v in range(40, 0, -1)]) \
        == (30.0, 75.0)
    # up to 21 samples the rule has no answer or falls below the median
    assert run.nearest_rank_tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (3.0, 60.0)
    assert run.nearest_rank_tail([2.0, 1.0]) == (2.0, 100.0)
