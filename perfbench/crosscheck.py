#!/usr/bin/env python3
"""Spot timings to cross-check the benchmark against ROADMAP's baseline.

    python3 perfbench/crosscheck.py

Times, with the benchmark's own generators and one call each:

* ``behavioural_classes`` on the one-letter DFA chain of n states where only
  the last state accepts, for n = 250, 500, 1000 (ROADMAP: 1000 takes about
  3.4 s, quadratic);
* ``reachable_part`` on a pointed sparse document of 3200 states for every
  family (ROADMAP: about 0.2 s).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

import gen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import coalgmin  # noqa: E402


def timed(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def main() -> int:
    rng = random.Random("crosscheck")
    for n in (250, 500, 1000):
        doc, _ = gen.chain("dfa", n, 1, rng)
        c = coalgmin.parse_coalgebra(json.dumps(doc))
        print(f"behavioural_classes dfa chain n={n}: {timed(coalgmin.behavioural_classes, c):.3f} s")
    for family in gen.FAMILIES:
        doc, _ = gen.sparse(family, 3200, rng)
        c = coalgmin.parse_coalgebra(json.dumps(doc))
        print(f"reachable_part {family} n=3200: {timed(coalgmin.reachable_part, c):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
