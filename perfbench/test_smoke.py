"""Smoke tests of the benchmark at tiny scale; a few seconds per workload.

Run with ``python3 -m pytest perfbench``. The tier-1 suite does not collect
them, because pytest's ``testpaths`` names ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_concurrent_children_once():
    # a fan-out span 0..10 whose two pool-thread children overlap in 2..4
    spans = [(1, 0, "procgen.generate_process", 1.0, 6.0, True),
             (2, 0, "procgen.generate_process", 2.0, 4.0, True),
             (3, 1, "tagparse.extract", 5.0, 5.5, True),
             (0, None, "procgen.generate_all", 0.0, 10.0, True)]
    summary = tracing.summarize(spans)
    assert summary["keys"]["procgen.generate_all"]["self_s"] == pytest.approx(5.0)
    assert summary["keys"]["procgen.generate_process"]["self_s"] == pytest.approx(6.5)
    # overlapping self intervals of one layer count once, so layers sum to the wall
    assert summary["layers"] == pytest.approx({"procgen": 9.5, "tagparse": 0.5})
