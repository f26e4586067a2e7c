#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes, with no wall-clock thresholds.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced, each under
two ``PYTHONHASHSEED`` values, and checks that

* the last line of standard output is the result object, with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, every job
  correct and none failed;
* the metrics are exactly BENCHMARK.json's ``end_to_end`` (untraced) or
  ``per_layer`` (traced) names, with the units listed there;
* the output digests, and the traced counters and ratios, are identical
  under both hash seeds, and traced runs produce the untraced digests;
* a second, held-out seed builds the same job mix at the same sizes, at full
  size.

Exits 0 when all checks hold and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, HELD_OUT_SEED = 5, 6
HASH_SEEDS = ("0", "1")


def run(workload: str, trace: int, hash_seed: str) -> tuple[dict, str]:
    """One tiny run; returns the result object and the output digest line."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next((line for line in lines if line.startswith("outputs ")), "")
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0:
        result["exit"] = proc.returncode
    return result, digest


def check_schema(result: dict, expected_units: dict) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(
            f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}"
        )
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected_units:
        problems.append(f"metric names or units differ from BENCHMARK.json: {units}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} is malformed: {m}")
    return problems


def deterministic(metrics: dict) -> dict:
    """The traced metrics that count work rather than time it."""
    return {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] != "ms" and name != "trace.overhead_ratio"
    }


def check_held_out_seed(workload: str) -> list:
    """Two seeds must give the same job ids over inputs of the same sizes."""
    scratch = ROOT / ".perfbench" / f"smoke-{os.getpid()}"
    try:
        mixes = []
        for seed in (SEED, HELD_OUT_SEED):
            jobs, _ = workloads.build(workload, seed, scratch / str(seed))
            mixes.append(sorted((job.id, job.states) for job in jobs))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return [] if mixes[0] == mixes[1] else ["held-out seed changes the job mix or sizes"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check_held_out_seed(workload)
        digests = set()
        for trace in (0, 1):
            counters = []
            for hash_seed in HASH_SEEDS:
                result, digest = run(workload, trace, hash_seed)
                problems += [f"trace {trace} hash seed {hash_seed}: {p}"
                             for p in check_schema(result, units[trace])]
                digests.add(digest)
                if trace == 1 and "metrics" in result:
                    counters.append(deterministic(result["metrics"]))
            if trace == 1 and counters[0] != counters[1]:
                problems.append(f"traced counters differ across hash seeds: {counters}")
        if len(digests) != 1:
            problems.append(f"output digests differ across runs: {sorted(digests)}")
        print(f"{'ok' if not problems else 'FAIL'} {workload}")
        failures += [f"{workload}: {p}" for p in problems]
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
