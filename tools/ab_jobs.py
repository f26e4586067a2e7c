#!/usr/bin/env python3
"""Time two coalgmin source trees against each other, job by job, in one process.

    python3 tools/ab_jobs.py PARENT_ROOT [CHANGE_ROOT] --workload sparse-large --seed 3

PARENT_ROOT and CHANGE_ROOT are repository roots (CHANGE_ROOT defaults to
the root this script lives in).  The parent tree's ``src/coalgmin`` is
loaded twice, as packages ``coalgmin_parent`` and ``coalgmin_again``, and
the change's once, as ``coalgmin_change``; the library imports itself only
relatively, so each package keeps to its own modules.  The job list of
``perfbench/workloads.py`` (read from CHANGE_ROOT, which this script only
reads) is built once.  Every round runs each job on the three sides
through ``cli.run_command``, back to back, rotating which side goes
first, and fails unless exit code, stdout, stderr and every output file
are byte-identical, naming the first part that differs and the two sides
that disagree.  Before each side's run of each job, untimed, it collects
garbage (``gc.collect()``), so that no job pays for a collection that the
garbage of the jobs before it set off.  With one collection per round, the
rounds' fixed allocation order landed a collection in the same job of one
side round after round: ``wellpoint/gadget`` (sparse-large, seed 3) read
A/B 0.47-0.52 between two trees whose gadget jobs took the same time, and
0.97 with a collection before every run.

It prints, per job class (the job id without its size and index), the
median over the rounds of the class's summed parent time over its summed
change time (A/B); above 1 means the change is faster.  Beside it stand the
same median for the parent against its second copy (A/A), which differs
from 1 only by noise, the A/A spread (the least and greatest of those
per-round A/A ratios), and the rounds the change won: those in which it ran
the class in less time than the parent's second copy, as ``wins 4/5``.
When the change alters nothing, each round is a fair coin, so 5 wins or
none of 5 come by chance once in 16.  The "all jobs" line does the same for
the whole job list.  Jobs run in this one process, which has long since
imported both trees, so each round also times, for each side in rotating
order, ``import coalgmin.cli`` in a fresh interpreter, twice: once from
bytecode caches kept under a temporary ``PYTHONPYCACHEPREFIX``, filled by
one untimed import of each tree, and once under ``PYTHONDONTWRITEBYTECODE=1``
with no prefix, which compiles the tree's sources unless the tree holds
bytecode of its own; the last two lines compare those import times, which
are not part of "all jobs".  Neither import, nor this process, writes a
``__pycache__`` into either tree.  Whole
benchmark runs of identical code can differ by tens of percent on a shared
machine, while back-to-back runs see the same machine state.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "again", "change")
IMPORT = "import coalgmin.cli"
CACHED_IMPORT = "import coalgmin.cli, cached"
_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import coalgmin.cli; print(time.perf_counter() - t)"
)


def load_cli(root: Path, name: str):
    """``run_command`` of the coalgmin tree under ``root``, imported as package ``name``."""
    package = root / "src" / "coalgmin"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").run_command


def import_seconds(root: Path, pycache: Path | None = None) -> float:
    """Time ``import coalgmin.cli`` of the tree under ``root`` in a fresh
    interpreter, start-up excluded: with bytecode caches read and written
    under ``pycache``, or, without it, written nowhere."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    if pycache:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT, str(root / "src")],
        capture_output=True, text=True, check=True, env=env,
    )
    return float(run.stdout)


def job_class(job_id: str) -> str:
    """``minimize/bag/300/2`` -> ``minimize/bag``: the id without its numbers."""
    parts = job_id.split("/")
    while parts and parts[-1][:1].isdigit():
        parts.pop()
    return "/".join(parts)


def class_rounds(times: dict, side: str, ids: list[str]) -> list[float]:
    """The summed time of the jobs ``ids`` on ``side``, round by round."""
    return [sum(seconds) for seconds in zip(*(times[side][j] for j in ids))]


def rounds_won(again: list[float], change: list[float]) -> int:
    """The rounds in which the change took less time than the parent's
    second copy; a tie is no win."""
    return sum(c < a for a, c in zip(again, change))


def first_difference(left: dict) -> str | None:
    """The first part of a job's results (exit code, stdout, stderr, then
    each output file) on which two sides disagree, and which two; None when
    all three sides agree.  The parent is checked against its second copy
    first: a difference there means the parent is not deterministic, which
    is no fault of the change."""
    for a, b in (("parent", "again"), ("parent", "change")):
        (*fields_a, files_a), (*fields_b, files_b) = left[a], left[b]
        parts = list(zip(("exit code", "stdout", "stderr"), fields_a, fields_b))
        parts += [(f"output file {name}", x, y) for (name, x), (_, y) in zip(files_a, files_b)]
        for part, x, y in parts:
            if x != y:
                why = " (the parent is not deterministic)" if b == "again" else ""
                return f"{part} differs between {a} and {b}{why}"
    return None


def run_job(run_command, job, out_dir: Path) -> tuple[float, tuple]:
    """Seconds taken, after an untimed garbage collection, and everything
    the job left behind."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(job.cli_argv(str(out_dir)))
    elapsed = perf_counter() - start
    files = tuple((name, (out_dir / name).read_bytes()) for name in job.outputs)
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, (code, out.getvalue(), err.getvalue(), files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=HERE.parent)
    parser.add_argument("--workload", default="sparse-large")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=5, help="at least 3 (default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 3:  # all of 2 rounds are won by chance once in 4
        parser.error(f"--rounds must be at least 3, got {args.rounds}")

    sys.dont_write_bytecode = True  # the trees gain no __pycache__ from this process
    sys.path.insert(0, str(args.change / "perfbench"))
    import workloads

    roots = dict(zip(SIDES, (args.parent.resolve(), args.parent.resolve(), args.change.resolve())))
    run = {side: load_cli(root, f"coalgmin_{side}") for side, root in roots.items()}
    work = Path(tempfile.mkdtemp(prefix="ab_jobs-"))
    try:
        jobs, _ = workloads.build(args.workload, args.seed, work / "in")
        times = {side: {job.id: [] for job in jobs} | {CACHED_IMPORT: [], IMPORT: []}
                 for side in SIDES}
        for root in set(roots.values()):
            import_seconds(root, work / "pycache")  # fills the caches
        for r in range(args.rounds):
            for side in SIDES[r % len(SIDES):] + SIDES[:r % len(SIDES)]:
                times[side][CACHED_IMPORT].append(import_seconds(roots[side], work / "pycache"))
                times[side][IMPORT].append(import_seconds(roots[side]))
            for k, job in enumerate(jobs):
                first = (r + k) % len(SIDES)
                left = {}
                for side in SIDES[first:] + SIDES[:first]:
                    elapsed, left[side] = run_job(run[side], job, work / side)
                    times[side][job.id].append(elapsed)
                difference = first_difference(left)
                if difference:
                    print(f"error: {job.id}: {difference}", file=sys.stderr)
                    return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    median = {side: {j: statistics.median(t) for j, t in times[side].items()} for side in SIDES}
    classes: dict[str, list[str]] = {}
    for job in jobs:
        classes.setdefault(job_class(job.id), []).append(job.id)
    classes["all jobs"] = [job.id for job in jobs]
    classes[CACHED_IMPORT], classes[IMPORT] = [CACHED_IMPORT], [IMPORT]
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {args.rounds} rounds, "
          "outputs byte-identical")
    print(f"{'class':32} {'jobs':>4} {'parent ms':>10} {'change ms':>10} "
          f"{'A/A':>6} {'A/A spread':>13} {'A/B':>6}")
    for name, ids in classes.items():
        parent, again, change = (class_rounds(times, side, ids) for side in SIDES)
        aa = [p / a for p, a in zip(parent, again)]
        ratio = statistics.median(p / c for p, c in zip(parent, change))
        parent_ms, change_ms = (
            1000 * sum(median[side][j] for j in ids) for side in ("parent", "change")
        )
        count = "-" if name in (CACHED_IMPORT, IMPORT) else len(ids)
        print(f"{name:32} {count:>4} {parent_ms:10.1f} {change_ms:10.1f} "
              f"{statistics.median(aa):6.3f} {min(aa):6.3f}-{max(aa):6.3f} {ratio:6.3f} "
              f"wins {rounds_won(again, change)}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
