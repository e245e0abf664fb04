"""Smoke test of the benchmark: tiny K for each workload shape.

Run from the repository root with ``python -m pytest perfbench``. Checks that
every metric named in ``BENCHMARK.json`` prints with its unit, that the
traced run emits every per-layer key, and that the benchmark refuses to run
without the program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_matches_code():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from metrics import END_TO_END, MOVES, PER_LAYER
        from workloads import WORKLOADS as CODE_WORKLOADS
    finally:
        del sys.path[:2]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in CODE_WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    for name in PER_LAYER:
        assert any(
            name == key or (key.endswith("*") and name.startswith(key[:-1])) for key in MOVES
        ), f"{name} has no entry in metrics.MOVES"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_unit(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--episodes", "6",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    if trace:
        assert "csv_sha256" in proc.stdout


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
