"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests

Checks that every metric BENCHMARK.json names is emitted with its unit (and
that the ungated time metrics are printed), that
the exact counts repeat between traced runs, that a corrupted output shows up
as failed, and that a directory without the package sources is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, *extra, cwd=ROOT, script=None, check=True):
    cmd = [
        sys.executable, str(script or ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny",
        *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    result["report"] = proc.stdout
    return result


def assert_metrics(result, specs):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run_bench(workload, "--trace", "0")
    assert result["correct"]
    assert_metrics(result, SPEC["end_to_end"])
    for line in ("cpu_s = ", "wall_s = ", "error_ratio = ", "ops_per_s = ",
                 "op_p50_ms = ", "op_p99_ms = "):
        assert line in result["report"]  # printed, though not gated


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = run_bench(workload, "--trace", "1")
    second = run_bench(workload, "--trace", "1")
    assert_metrics(first, SPEC["per_layer"])
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: first["metrics"][k]["value"] for k in exact} == {
        k: second["metrics"][k]["value"] for k in exact
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails(workload):
    result = run_bench(workload, "--trace", "0", "--corrupt")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py", check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
