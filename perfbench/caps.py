#!/usr/bin/env python3
"""Re-derive the size caps of the wellpoint and iso jobs (the rule is in NOTES.md).

    python3 perfbench/caps.py

For each family it walks the size grid upwards, timing 200 probe instances
per size (pointed and unpointed for iso).  A size fails when the slowest
instance exceeds the time budget or the cost's coefficient of variation
exceeds 1; the first failure stops the walk and the cap is the size before
it.  Takes a few minutes.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import coalgmin  # noqa: E402

RUN_SECONDS = 55
INSTANCES = 200
MAX_CV = 1.0
ISO_GRID = (6, 7, 8, 10, 12, 15, 18, 20, 25)
WELLPOINT_GRID = (20, 30, 40)


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun()


def iso_instance(family: str, n: int, pointed: bool, seed: int) -> None:
    rng = random.Random(1000 + seed)
    doc, _ = gen.sparse(family, n, rng)
    a = coalgmin.parse_coalgebra(json.dumps(doc))
    b = coalgmin.parse_coalgebra(json.dumps(gen.renamed_copy(doc, rng)))
    if not pointed:
        a, b = coalgmin.underlying(a), coalgmin.underlying(b)
    if coalgmin.are_isomorphic(a, b) is None:
        raise AssertionError("a renamed copy must be isomorphic")


def wellpoint_instance(family: str, n: int, seed: int) -> None:
    doc, _ = gen.sparse(family, n, random.Random(2000 + seed))
    c = coalgmin.parse_coalgebra(json.dumps(doc))
    simple_first = coalgmin.well_pointed_modification(c)
    part, _ = coalgmin.reachable_part(c)
    reach_first, _ = coalgmin.apply_partition_quotient(part, coalgmin.behavioural_classes(part))
    if coalgmin.are_isomorphic(simple_first, reach_first) is None:
        raise AssertionError("the two orders must agree on flagged families")


def passes(label: str, instance, budget_s: float) -> bool:
    """Time INSTANCES runs of ``instance(seed)``; report and judge them."""
    times = []
    for seed in range(INSTANCES):
        signal.setitimer(signal.ITIMER_REAL, 100 * budget_s)
        start = perf_counter()
        try:
            instance(seed)
        except Overrun:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(perf_counter() - start)
    mean = statistics.mean(times)
    cv = statistics.pstdev(times) / mean
    ok = max(times) <= budget_s and cv <= MAX_CV
    print(f"  {label}: mean {1000 * mean:.2f} ms, CV {cv:.2f}, "
          f"max {1000 * max(times):.1f} ms {'pass' if ok else 'FAIL'}", flush=True)
    return ok


def cap(grid, check) -> int:
    last = None
    for n in grid:
        if not check(n):
            break
        last = n
    return last


def main() -> int:
    signal.signal(signal.SIGALRM, _overrun)
    iso_budget, wellpoint_budget = RUN_SECONDS / 2000, RUN_SECONDS / 1000
    for family in gen.FAMILIES:
        print(f"iso {family}")
        found = cap(ISO_GRID, lambda n: all(
            passes(f"n={n} {'pointed' if p else 'unpointed'}",
                   lambda seed: iso_instance(family, n, p, seed), iso_budget)
            for p in (True, False)
        ))
        print(f"iso cap {family}: {found}")
    for family in ("dfa", "powerset", "labelled", "bag"):
        print(f"wellpoint {family}")
        found = cap(WELLPOINT_GRID, lambda n: passes(
            f"n={n}", lambda seed: wellpoint_instance(family, n, seed), wellpoint_budget
        ))
        print(f"wellpoint cap {family}: {found}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
