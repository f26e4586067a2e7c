"""``tools/ab_jobs.py``, the job-by-job timing of two source trees."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_jobs.py"


def ab_jobs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), *args],
        capture_output=True, text=True, timeout=600,
    )


def test_a_tree_timed_against_itself_gives_identical_outputs():
    run = ab_jobs("--workload", "deep-chain", "--seed", "0", "--rounds", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("deep-chain seed 0: ")
    assert lines[0].endswith(" jobs, 3 rounds, outputs byte-identical")
    assert any(line.startswith("all jobs ") for line in lines[2:])


@pytest.mark.parametrize("rounds", ["2", "1", "0"])
def test_fewer_than_three_rounds_are_refused(rounds):
    run = ab_jobs("--rounds", rounds)
    assert run.returncode == 2
    assert run.stdout == ""
    assert f"--rounds must be at least 3, got {rounds}" in run.stderr
