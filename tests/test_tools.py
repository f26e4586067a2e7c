"""``tools/ab_jobs.py``, the job-by-job timing of two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_jobs.py"
_spec = importlib.util.spec_from_file_location("ab_jobs", TOOL)
ab_jobs_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_jobs_module)


def ab_jobs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), *args],
        capture_output=True, text=True, timeout=600,
    )


def test_a_tree_timed_against_itself_gives_identical_outputs():
    caches = sorted(ROOT.rglob("__pycache__"))
    run = ab_jobs("--workload", "deep-chain", "--seed", "0", "--rounds", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("deep-chain seed 0: ")
    assert lines[0].endswith(" jobs, 3 rounds, outputs byte-identical")
    assert any(line.startswith("all jobs ") for line in lines[2:])
    # the fresh-interpreter import is timed too, on its own line
    assert lines[-1].startswith("import coalgmin.cli ")
    assert lines[-1].split()[2] == "-"
    assert lines[-1].endswith("/3")
    # and from bytecode caches, kept outside the tree
    assert lines[-2].startswith("import coalgmin.cli, cached ")
    assert lines[-2].split()[3] == "-"
    assert lines[-2].endswith("/3")
    assert sorted(ROOT.rglob("__pycache__")) == caches


@pytest.mark.parametrize("rounds", ["2", "1", "0"])
def test_fewer_than_three_rounds_are_refused(rounds):
    run = ab_jobs("--rounds", rounds)
    assert run.returncode == 2
    assert run.stdout == ""
    assert f"--rounds must be at least 3, got {rounds}" in run.stderr


def test_a_class_counts_the_rounds_its_summed_time_beat_the_second_parent():
    # two jobs of one class, four rounds; per-round sums (again, change):
    # (3.0, 2.5) won, (3.0, 3.5) lost, (3.0, 3.0) tied, (4.0, 1.0) won
    times = {
        "parent": {"j/1": [9.0, 9.0, 9.0, 9.0], "j/2": [9.0, 9.0, 9.0, 9.0]},
        "again": {"j/1": [1.0, 2.0, 1.0, 2.0], "j/2": [2.0, 1.0, 2.0, 2.0]},
        "change": {"j/1": [1.5, 1.5, 2.0, 0.5], "j/2": [1.0, 2.0, 1.0, 0.5]},
    }
    again, change = (
        ab_jobs_module.class_rounds(times, side, ["j/1", "j/2"]) for side in ("again", "change")
    )
    assert again == [3.0, 3.0, 3.0, 4.0]
    assert change == [2.5, 3.5, 3.0, 1.0]
    assert ab_jobs_module.rounds_won(again, change) == 2
    assert ab_jobs_module.rounds_won(change, again) == 1
    assert ab_jobs_module.rounds_won(again, again) == 0


def test_the_first_difference_names_the_part_and_the_two_sides():
    same = (0, "out\n", "", (("a.json", b"{}"), ("b.json", b"[]")))
    first_difference = ab_jobs_module.first_difference
    assert first_difference({"parent": same, "again": same, "change": same}) is None
    cases = [
        ((1, *same[1:]), "change", "exit code differs between parent and change"),
        ((0, "other\n", *same[2:]), "change", "stdout differs between parent and change"),
        ((0, "out\n", "warn\n", same[3]), "change", "stderr differs between parent and change"),
        (
            (*same[:3], (("a.json", b"{}"), ("b.json", b"[1]"))),
            "change",
            "output file b.json differs between parent and change",
        ),
        (
            (0, "other\n", "warn\n", same[3]),
            "again",
            "stdout differs between parent and again (the parent is not deterministic)",
        ),
    ]
    for result, side, message in cases:
        left = {"parent": same, "again": same, "change": same, side: result}
        assert first_difference(left) == message
