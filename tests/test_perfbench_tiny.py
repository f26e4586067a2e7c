"""The benchmark's tiny runs pass end to end.

The benchmark under ``perfbench/`` reaches the library only through its
public API (``underlying``, ``point_of``, ``parse_morphism`` and the CLI), so
a change to that API shows here first.  Each run takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_benchmark_run_checks_every_output(workload):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "5", "--seconds", "0", "--trace", "0", "--tiny",
    ]
    run = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
