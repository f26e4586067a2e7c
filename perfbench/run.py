#!/usr/bin/env python3
"""coalgmin benchmark: one workload, one seed, timed CLI jobs, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory, in this process, on one thread.  The run

1. sets up: imports the library, generates the workload's documents from
   the seed, writes them and runs one untimed warm-up job.  It sets up again
   before every later untraced pass, and at least ``SETUP_REPS`` times in
   all, so that set-up is sampled across the run like the jobs.
   ``setup_s`` is the median of the library imports, each timed in a fresh
   interpreter, plus the median of the generate-write-warm-up repetitions;
2. runs the workload's fixed job list in passes, each job through
   ``coalgmin.cli.run_command``: at least ``MIN_PASSES`` passes, and more
   while the next pass should end within ``--seconds``;
3. checks every job: exit code, an independent check of its outputs, and
   its output digest, against its first run and against ``golden.json``
   for the seeds recorded there;
4. prints a human-readable summary and, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate; the traced passes replay each job as
its public library calls (see ``replay.py``) and the metrics are per-layer
self times, counters and the tracing overhead.  Spans are written to
``.perfbench/spans-<workload>-seed<seed>.json`` at the end of a traced run.

Exit status: 0 when every job passed its checks, 1 when any failed, 2 when
the library sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

SETUP_REPS = 7
MIN_PASSES = 3
JOB_TIMEOUT_S = 20
TAIL_BEYOND = 10
GOLDEN_HEX = 16  # recorded digest prefix: 64 bits per job

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.args_ms": "ms",
    "cli.read_ms": "ms",
    "cli.write_ms": "ms",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "formats.parse_ms": "ms",
    "formats.serialize_ms": "ms",
    "formats.parse_calls": "count",
    "core.validate_probe_ms": "ms",
    "core.quotient_ms": "ms",
    "core.quotient_calls": "count",
    "observability.refine_ms": "ms",
    "observability.refine_calls": "count",
    "observability.states_in": "count",
    "observability.blocks_out": "count",
    "observability.merge_ratio": "ratio",
    "reachability.reach_ms": "ms",
    "reachability.reach_calls": "count",
    "reachability.kept_ratio": "ratio",
    "wellpointed.iso_ms": "ms",
    "wellpointed.iso_calls": "count",
    "wellpointed.iso_found_ratio": "ratio",
    "wellpointed.orders_disagree": "count",
    **{f"suites.{name}_ms": "ms" for name in workloads.SUITE_NAMES},
    "suites.instances": "count",
    "trace.job_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class JobTimeout(BaseException):
    """Raised in a job that overruns JOB_TIMEOUT_S.

    A BaseException, so no ``except Exception`` inside the library swallows it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout()


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Harness:
    """Runs jobs, times them and checks every result."""

    def __init__(self, run_command, golden: dict):
        self.run_command = run_command
        self.golden = golden
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def plain(self, job, out_dir: str) -> int:
        """The job as a user runs it: one CLI invocation."""
        return self.run_command(job.cli_argv(out_dir))

    def execute(self, job, out_dir: str, rec=None, replay=None) -> float:
        """Run one job (traced when ``rec`` is given), check it, return its seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        code, crash = None, None
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if rec is None:
                    code = self.plain(job, out_dir)
                else:
                    rec.job = job.id
                    with rec.span("job"):
                        code = replay(job, out_dir, rec)
        except JobTimeout:
            crash = f"timed out after {JOB_TIMEOUT_S} s"
        except Exception:  # the harness must go on and report the failure
            crash = traceback.format_exc(limit=3).strip().replace("\n", " | ")
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        problems = [crash] if crash else self._verify(job, out_dir, code, out, err)
        if problems:
            self.failures.append(f"{job.id}: {'; '.join(problems)}")
        return elapsed

    def _verify(self, job, out_dir, code, out, err) -> list:
        if code != job.expect_exit:
            detail = err.getvalue().strip().splitlines()[:1]
            return [f"exit {code}, expected {job.expect_exit}", *detail]
        files = {}
        for name in job.outputs:
            path = Path(out_dir) / name
            if not path.is_file():
                return [f"missing output {name}"]
            files[name] = path.read_bytes()
        result = workloads.Result(code, out.getvalue(), err.getvalue(), files)
        digest = _sha(
            f"exit {code}\nstdout {_sha(result.stdout)}\nstderr {_sha(result.stderr)}\n"
            + "".join(f"{name} {_sha(files[name])}\n" for name in job.outputs)
        )
        if job.id in self.digests:
            if digest != self.digests[job.id]:
                return ["outputs differ from this job's first run"]
            return []
        self.digests[job.id] = digest
        problems = []
        if self.golden and self.golden.get(job.id) != digest[:GOLDEN_HEX]:
            problems.append(f"output digest {digest[:GOLDEN_HEX]} differs from golden.json "
                            f"({self.golden.get(job.id)})")
        if job.check is not None:
            try:
                problems += job.check(result)
            except Exception as exc:  # a malformed output is a failed check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        return problems

    def run_pass(self, jobs, pass_dir: Path, rec=None, replay=None) -> list:
        gc.collect()
        times = [
            self.execute(job, str(pass_dir / str(i)), rec, replay)
            for i, job in enumerate(jobs)
        ]
        shutil.rmtree(pass_dir, ignore_errors=True)
        return times


def import_seconds() -> float:
    """Time ``import coalgmin.cli`` in a fresh interpreter, start-up excluded."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import coalgmin.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it."""
    return max(50, (100 * (n - TAIL_BEYOND)) // n)


def nearest_rank(sorted_values: list, percentile: int) -> float:
    rank = -(-percentile * len(sorted_values) // 100)
    return sorted_values[max(rank, 1) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(own_passes: list, counts: Counter, overhead: float, job_s: float) -> dict:
    """Per-layer metrics from the traced passes: median self times, counters, ratios."""

    def ms(span: str) -> float:
        return 1000 * statistics.median(own[span] for own in own_passes)

    values = {
        "cli.args_ms": ms("cli.args"),
        "cli.read_ms": ms("cli.read"),
        "cli.write_ms": ms("cli.write"),
        "cli.bytes_in": counts["cli.bytes_in"],
        "cli.bytes_out": counts["cli.bytes_out"],
        "formats.parse_ms": ms("formats.parse"),
        "formats.serialize_ms": ms("formats.serialize"),
        "formats.parse_calls": counts["formats.parse_calls"],
        "core.validate_probe_ms": ms("core.validate_probe"),
        "core.quotient_ms": ms("core.quotient"),
        "core.quotient_calls": counts["core.quotient_calls"],
        "observability.refine_ms": ms("observability.refine"),
        "observability.refine_calls": counts["observability.refine_calls"],
        "observability.states_in": counts["observability.states_in"],
        "observability.blocks_out": counts["observability.blocks_out"],
        "observability.merge_ratio": 1 - _ratio(
            counts["observability.blocks_out"], counts["observability.states_in"]
        ) if counts["observability.states_in"] else 0.0,
        "reachability.reach_ms": ms("reachability.reach"),
        "reachability.reach_calls": counts["reachability.reach_calls"],
        "reachability.kept_ratio": _ratio(
            counts["reachability.kept"], counts["reachability.states_in"]
        ),
        "wellpointed.iso_ms": ms("wellpointed.iso"),
        "wellpointed.iso_calls": counts["wellpointed.iso_calls"],
        "wellpointed.iso_found_ratio": _ratio(
            counts["wellpointed.iso_found"], counts["wellpointed.iso_calls"]
        ),
        "wellpointed.orders_disagree": counts["wellpointed.orders_disagree"],
        **{f"suites.{name}_ms": ms(f"suites.{name}") for name in workloads.SUITE_NAMES},
        "suites.instances": counts["suites.instances"],
        "trace.job_ms": 1000 * job_s,
        "trace.overhead_ratio": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one coalgmin benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--record", action="store_true",
        help="store this seed's output digests in golden.json instead of comparing",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "coalgmin" / "__init__.py").is_file():
        print(f"error: no coalgmin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from coalgmin.cli import run_command  # writes any bytecode caches before timing

    import replay

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    seed_golden = golden.get(args.workload, {}).get(str(args.seed), {})
    harness = Harness(run_command, {} if args.tiny or args.record else seed_golden)
    signal.signal(signal.SIGALRM, _on_alarm)
    work = OUT / f"work-{os.getpid()}"
    imports, setup = [], []

    def set_up():
        """One set-up: a fresh-interpreter import, then generate, write, warm up."""
        imports.append(import_seconds())
        start = perf_counter()
        built = workloads.build(args.workload, args.seed, work / "in", args.tiny)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            harness.plain(built[1], str(work / "warmup"))
        setup.append(perf_counter() - start)
        return built[0]

    try:
        jobs = set_up()
        rec = replay.Recorder() if args.trace else None
        untraced, traced, own_passes, counts = [], [], [], None
        start = perf_counter()
        k, last_s = 0, 0.0
        # A pass starts only if it should end within --seconds, judged by the
        # previous one, so that runs do not overshoot by up to a whole pass.
        while k < (2 if rec else MIN_PASSES) or perf_counter() - start + last_s <= args.seconds:
            begun = perf_counter()
            if rec is not None and k % 2 == 1:
                first = len(rec.spans)
                harness.run_pass(jobs, work / f"pass{k}", rec, replay.replay)
                own, job_s = rec.self_times(first)
                own_passes.append(own)
                traced.append(job_s)
                if counts is None:  # counts of the first traced pass
                    counts = Counter(rec.counts)
            else:
                if k:  # spread the set-ups over the run, like the passes
                    set_up()
                untraced.append(harness.run_pass(jobs, work / f"pass{k}"))
            last_s = perf_counter() - begun
            k += 1
        while len(setup) < SETUP_REPS:
            set_up()
        setup_s = statistics.median(imports) + statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outputs = _sha("".join(f"{j} {d}\n" for j, d in sorted(harness.digests.items())))
    if harness.golden and set(harness.golden) != set(harness.digests):
        harness.failures.append(f"seed {args.seed}: golden.json records other jobs")
    failed = len(harness.failures)
    for line in harness.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    # A job's time is the median of its runs, which keeps bursts of
    # interference from other tenants of a shared machine out of the tail.
    # The percentiles are over jobs, so each sample is a distinct job.
    pass_s = [sum(times) for times in untraced]
    job_times = sorted(statistics.median(runs) for runs in zip(*untraced))
    p = tail_percentile(len(job_times))
    tail = nearest_rank(job_times, p)
    end_to_end = {
        "setup_s": setup_s,
        "jobs_per_s": len(jobs) * len(pass_s) / sum(pass_s),
        "job_ms_p50": 1000 * statistics.median(job_times),
        "job_ms_tail": 1000 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    for name, value in end_to_end.items():
        print(f"{name} {value:.4f} {END_TO_END[name]}")
    print(f"  setup_s is the median of {len(imports)} imports ({statistics.median(imports):.4f} s) "
          f"plus the median of {len(setup)} set-ups")
    print(f"  job_ms_tail is p{p} over {len(job_times)} jobs, "
          f"{sum(1 for t in job_times if t > tail)} beyond; each job's time is its median "
          f"over {len(untraced)} runs")
    print(f"failed_frac {failed / harness.attempted:.4f} ({failed} of {harness.attempted} job runs)")
    print(f"outputs {outputs}")
    if not harness.golden:
        print(f"  seed {args.seed} has no digests in golden.json: "
              "outputs checked by the independent checks and across runs only")

    if rec is not None:
        overhead = statistics.median(traced) / statistics.median(pass_s) - 1
        metrics = layer_metrics(own_passes, counts, overhead, statistics.median(traced))
        for name, m in metrics.items():
            print(f"  {name} {m['value']} {m['unit']}")
        OUT.mkdir(exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": parent, "job": job}
            for n, s, e, parent, job in rec.spans
        ]
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in end_to_end.items()}

    if args.record and not failed and not args.tiny:
        golden.setdefault(args.workload, {})[str(args.seed)] = {
            job: digest[:GOLDEN_HEX] for job, digest in sorted(harness.digests.items())
        }
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
