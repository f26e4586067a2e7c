"""Traced replays of the benchmark's jobs, split into the library's public calls.

Each CLI command is re-enacted here as exactly the public calls it makes, and
every call or file access is wrapped in a span.  For example ``minimize``
becomes argument parsing, read, ``parse_coalgebra``, ``behavioural_classes``,
``apply_partition_quotient``, three serializes and three writes; ``wellpoint
--order both`` becomes the two composition orders plus ``are_isomorphic``.
The replays must write byte-identical outputs to the untraced ``run_command``
path, which the harness checks by digest.

A ``props`` job is one ``run_suite`` call, so it is traced as one
``suites.<name>`` span around ``run_command``, argument parsing included.

Span names are ``<module>.<layer>``, after the ``src/coalgmin`` module that
owns the call.  A ``core.validate_probe`` span runs one standalone
``validate_coalgebra`` per parsed input, to show what each re-validation
costs; it is not job work, and job times leave it out.
"""

from __future__ import annotations

import io
import re
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

import coalgmin
from coalgmin.cli import build_parser, run_command

PROBE = "core.validate_probe"


class Recorder:
    """Spans kept in memory plus exact counters, for one run.

    A span is [name, start, end, parent index or None, job id].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self, first: int = 0) -> tuple[Counter, float]:
        """Self time in seconds per span name, and job time without probes.

        Only spans from index ``first`` on are counted, so one pass of a run
        can be summarised on its own.
        """
        spans = self.spans[first:]
        child_time = Counter()
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        own = Counter()
        job_time = 0.0
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            own[name] += end - start - child_time[i]
            if name == "job":
                job_time += end - start
            elif name == PROBE:
                job_time -= end - start
        return own, job_time


def replay(job, out_dir: str, rec: Recorder) -> int:
    """Run one job as its sequence of traced public calls; return the exit code."""
    argv = job.cli_argv(out_dir)
    if argv[0] == "props":
        return _props(rec, argv)
    with rec.span("cli.args"):
        args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](rec, args)
    except coalgmin.CoalgminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load(rec: Recorder, path: str, pointed):
    with rec.span("cli.read"):
        text = Path(path).read_text()
    rec.counts["cli.bytes_in"] += len(text)
    with rec.span("formats.parse"):
        c = coalgmin.parse_coalgebra(text)
    rec.counts["formats.parse_calls"] += 1
    with rec.span(PROBE):
        coalgmin.validate_coalgebra(c)
    if pointed is True and coalgmin.point_of(c) is None:
        raise coalgmin.CoalgminError(f"{path}: document has no point but --pointed was given")
    return coalgmin.underlying(c) if pointed is False else c


def _emit(rec: Recorder, out_dir: str, name: str, serialize, value) -> None:
    with rec.span("formats.serialize"):
        text = serialize(value)
    with rec.span("cli.write"):
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(text)
    rec.counts["cli.bytes_out"] += len(text)


def _refine(rec: Recorder, c):
    with rec.span("observability.refine"):
        partition = coalgmin.behavioural_classes(c)
    rec.counts["observability.refine_calls"] += 1
    rec.counts["observability.states_in"] += len(c.states)
    rec.counts["observability.blocks_out"] += len(partition.blocks)
    return partition


def _quotient(rec: Recorder, c, partition):
    with rec.span("core.quotient"):
        quotient, projection = coalgmin.apply_partition_quotient(c, partition)
    rec.counts["core.quotient_calls"] += 1
    return quotient, projection


def _reach(rec: Recorder, c):
    with rec.span("reachability.reach"):
        part, inclusion = coalgmin.reachable_part(c)
    rec.counts["reachability.reach_calls"] += 1
    rec.counts["reachability.states_in"] += len(c.states)
    rec.counts["reachability.kept"] += len(part.states)
    return part, inclusion


def _iso(rec: Recorder, a, b):
    with rec.span("wellpointed.iso"):
        iso = coalgmin.are_isomorphic(a, b)
    rec.counts["wellpointed.iso_calls"] += 1
    rec.counts["wellpointed.iso_found"] += iso is not None
    return iso


def _minimize(rec, args):
    c = _load(rec, args.file, None)
    partition = _refine(rec, c)
    quotient, projection = _quotient(rec, c, partition)
    _emit(rec, args.out_dir, "quotient.json", coalgmin.serialize_coalgebra, quotient)
    _emit(rec, args.out_dir, "projection.json", coalgmin.serialize_morphism, projection)
    _emit(rec, args.out_dir, "partition.json", coalgmin.serialize_partition, partition)
    return 0


def _reach_cmd(rec, args):
    c = _load(rec, args.file, True)
    part, inclusion = _reach(rec, c)
    _emit(rec, args.out_dir, "reachable.json", coalgmin.serialize_coalgebra, part)
    _emit(rec, args.out_dir, "embedding.json", coalgmin.serialize_morphism, inclusion)
    return 0


def _wellpoint_both(rec, args):
    if args.order != "both":
        raise ValueError(f"replay covers only --order both, got {args.order}")
    c = _load(rec, args.file, True)
    with rec.span("wellpointed.simple_first"):
        quotient, _ = _quotient(rec, c, _refine(rec, c))
        simple_first, _ = _reach(rec, quotient)
    with rec.span("wellpointed.reach_first"):
        part, _ = _reach(rec, c)
        reach_first, _ = _quotient(rec, part, _refine(rec, part))
    agree = _iso(rec, simple_first, reach_first) is not None
    rec.counts["wellpointed.orders_disagree"] += not agree
    _emit(rec, args.out_dir, "wellpoint-simple-first.json", coalgmin.serialize_coalgebra, simple_first)
    _emit(rec, args.out_dir, "wellpoint-reach-first.json", coalgmin.serialize_coalgebra, reach_first)
    print(f"agree: {'true' if agree else 'false'}")
    return 0 if agree else 1


def _iso_cmd(rec, args):
    a = _load(rec, args.a, args.pointed)
    b = _load(rec, args.b, args.pointed)
    iso = _iso(rec, a, b)
    if iso is None:
        print("no isomorphism", file=sys.stderr)
        return 1
    with rec.span("formats.serialize"):
        text = coalgmin.serialize_morphism(iso)
    sys.stdout.write(text)
    return 0


def _props(rec, argv):
    name = argv[argv.index("--suite") + 1]
    out = io.StringIO()
    with rec.span(f"suites.{name}"), redirect_stdout(out):
        code = run_command(argv)
    report = out.getvalue()
    sys.stdout.write(report)
    rec.counts["suites.instances"] += sum(map(int, re.findall(r" instances=(\d+)", report)))
    return code


_COMMANDS = {
    "minimize": _minimize,
    "reach": _reach_cmd,
    "wellpoint": _wellpoint_both,
    "iso": _iso_cmd,
}
