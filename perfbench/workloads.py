"""The workloads: seeded input documents, fixed job lists, and checks.

A job is one user command with its expected exit code and an independent
check of its outputs.  Job ids name the command, family and size but not the
seed, so every seed yields the same job mix at the same sizes; only the
random content of the documents changes.

The checks use the generators' own ground truth (successor lists, chain
lengths, gadget shapes) or closed forms, never the algorithm under test:

* every ``minimize`` partition equals the coarsest one that
  ``coarsest_partition``, a naive refinement written here from the document
  format, computes; it covers the input carrier exactly and agrees with the
  quotient and the projection;
* ``reach`` keeps exactly the states an independent BFS over the generated
  successor lists reaches;
* chain classes follow the closed form: the states at the same distance
  from the end of their chain, so n classes for one chain and n/2 for two
  copies;
* every map ``iso`` prints parses to a bijective homomorphism, checked with
  ``check_homomorphism`` rather than ``are_isomorphic``;
* flagged families agree under ``wellpoint --order both`` and every
  cancellation gadget prints ``agree: false``, with the closed-form sizes 1
  and k + 2;
* every suite report passes.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from fractions import Fraction
from typing import Callable, Optional

import gen

WORKLOADS = ("sparse-large", "deep-chain")

# Sizes per workload.  "tiny" is for the smoke test only.
SIZES = {
    "sparse-large": {
        "full": {
            # {states: documents per family}
            "sparse": {300: 6, 1000: 2, 3000: 1},
            # Per-family caps by the rule in NOTES.md: below the first size
            # at which 200 probe instances exceed a per-instance time budget
            # set by the run length, or their cost's coefficient of variation
            # exceeds 1.
            "wellpoint": {"dfa": 40, "powerset": 30, "labelled": 40, "bag": 40},
            "gadget": (8, 16, 32, 64),
            "iso": {"dfa": 7, "powerset": 10, "labelled": 12, "bag": 10, "rational": 15},
            # one suite job per suite over seeds 0 .. suite_seeds - 1
            "suite_seeds": 10,
        },
        "tiny": {
            "sparse": {12: 1, 30: 1},
            "wellpoint": {"dfa": 6, "powerset": 6, "labelled": 6, "bag": 6},
            "gadget": (2,),
            "iso": {"dfa": 4, "powerset": 4, "labelled": 4, "bag": 4, "rational": 4},
            "suite_seeds": 2,
        },
    },
    # {states: documents per family}, for one chain and for two copies
    "deep-chain": {
        "full": {"chains": {100: 2, 200: 2}, "copies": {200: 2, 300: 2}},
        "tiny": {"chains": {6: 1, 10: 2}, "copies": {8: 1, 12: 1}},
    },
}

@dataclass(frozen=True)
class Result:
    """What one job left behind: exit code, captured streams, output files."""

    code: int
    stdout: str
    stderr: str
    files: dict


@dataclass(frozen=True)
class Job:
    """One user command.

    ``argv`` is the CLI argument list without ``--out-dir``.  ``check``
    returns a list of problems found in a result, independently of the code
    under test.  ``states`` is the input size, which must not depend on the
    seed.
    """

    id: str
    argv: tuple
    outputs: tuple = ()
    expect_exit: int = 0
    check: Optional[Callable[[Result], list]] = None
    states: int = 0

    def cli_argv(self, out_dir: str) -> list:
        return list(self.argv) + (["--out-dir", out_dir] if self.outputs else [])


def build(workload: str, seed: int, in_dir: Path, tiny: bool = False):
    """Generate and write the inputs of one workload; return (jobs, warm-up job)."""
    sizes = SIZES[workload]["tiny" if tiny else "full"]
    rng = random.Random(f"{workload}/{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    builder = {"sparse-large": _sparse_large, "deep-chain": _deep_chain}[workload]
    jobs = builder(sizes, rng, in_dir)
    return jobs, jobs[0]


def _read_doc(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _write_doc(in_dir: Path, name: str, doc: dict) -> str:
    path = in_dir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# sparse-large
# ---------------------------------------------------------------------------


def _sparse_large(sizes, rng, in_dir):
    jobs = []
    for family in gen.FAMILIES:
        for n, count in sizes["sparse"].items():
            for i in range(count):
                doc, adjacency = gen.sparse(family, n, rng)
                path = _write_doc(in_dir, f"sparse-{family}-{n}-{i}", doc)
                jobs += _sparse_jobs(f"{family}/{n}/{i}", path, doc, adjacency)
    jobs += _wellpoint_iso_jobs(sizes, rng, in_dir)
    return jobs + _suite_jobs(sizes["suite_seeds"])


def _sparse_jobs(name: str, path: str, doc: dict, adjacency: dict) -> list:
    n = len(doc["states"])
    return [
        Job(
            f"minimize/{name}", ("minimize", path),
            outputs=("quotient.json", "projection.json", "partition.json"),
            check=_partition_check(doc["states"], lambda: coarsest_partition(_read_doc(path))),
            states=n,
        ),
        Job(
            f"reach/{name}", ("reach", path),
            outputs=("reachable.json", "embedding.json"),
            check=_reach_check(gen.reachable(doc["point"], adjacency)), states=n,
        ),
    ]


def _partition_check(states: list, expected: Callable[[], set]):
    """Check a ``minimize`` result against the expected set of blocks.

    ``expected`` computes the blocks when the check runs, so that set-up
    does not pay for the naive refinement.
    """

    def check(result: Result) -> list:
        want = expected()
        blocks = json.loads(result.files["partition.json"])["blocks"]
        quotient = json.loads(result.files["quotient.json"])["states"]
        projection = json.loads(result.files["projection.json"])["map"]
        problems = []
        members = [s for b in blocks for s in b]
        if sorted(members) != sorted(states):
            problems.append("partition does not cover the carrier exactly once")
        if len(quotient) != len(blocks):
            problems.append(f"{len(quotient)} quotient states for {len(blocks)} blocks")
        if {frozenset(b) for b in blocks} != want:
            problems.append(f"{len(blocks)} classes, but the coarsest partition has "
                            f"{len(want)} and differs")
        for b in blocks:
            if len({projection.get(s) for s in b}) != 1:
                problems.append(f"projection splits block of {b[0]!r}")
                break
        if set(projection.values()) != set(quotient):
            problems.append("projection is not onto the quotient carrier")
        return problems

    return check


def coarsest_partition(doc: dict) -> set:
    """The behavioural classes of a document, by naive signature refinement.

    Starts from one block and splits by (block, signature) until the number
    of blocks stops growing.  A signature is the state's structure with every
    successor replaced by its block: the acceptance bit and the blocks of the
    moves (dfa), the set of blocks (powerset), of (label, block) pairs
    (labelled), or the nonzero sums of weights into each block (weighted).
    Written from the document format alone, independent of the library.
    """
    kind = doc["functor"]["kind"]
    states, structure = doc["states"], doc["structure"]

    def signature(t, block):
        if kind == "dfa":
            return t["accepting"], tuple(block[t["next"][a]] for a in sorted(t["next"]))
        if kind == "powerset":
            return frozenset(block[x] for x in t)
        if kind == "labelled-powerset":
            return frozenset((label, block[x]) for label, x in t)
        sums = defaultdict(Fraction)
        for x, w in t.items():
            sums[block[x]] += Fraction(w)
        return frozenset((b, w) for b, w in sums.items() if w != 0)

    block, count = dict.fromkeys(states, 0), 1
    while True:
        ids: dict = {}
        new = {s: ids.setdefault((block[s], signature(structure[s], block)), len(ids))
               for s in states}
        if len(ids) == count:
            break
        block, count = new, len(ids)
    classes = defaultdict(set)
    for s in states:
        classes[block[s]].add(s)
    return {frozenset(c) for c in classes.values()}


def chain_classes(adjacency: dict) -> set:
    """The closed-form classes of chains: states grouped by distance to the end.

    The end of a chain is the state without a successor, or with itself as
    its only successor.
    """
    before = defaultdict(list)
    level = []
    for s, succ in adjacency.items():
        if succ in ([], [s]):
            level.append(s)
        else:
            before[succ[0]].append(s)
    classes = set()
    while level:
        classes.add(frozenset(level))
        level = [p for s in level for p in before[s]]
    return classes


def _reach_check(expected: set):
    def check(result: Result) -> list:
        kept = json.loads(result.files["reachable.json"])["states"]
        embedding = json.loads(result.files["embedding.json"])["map"]
        problems = []
        if set(kept) != expected or len(kept) != len(expected):
            problems.append(f"kept {len(kept)} states, independent BFS reaches {len(expected)}")
        if embedding != {s: s for s in kept}:
            problems.append("embedding is not the identity on the kept states")
        return problems

    return check


# ---------------------------------------------------------------------------
# deep-chain
# ---------------------------------------------------------------------------


def _deep_chain(sizes, rng, in_dir):
    jobs = []
    for family in gen.FAMILIES:
        for shape, count, lengths in (
            ("chain", 1, sizes["chains"]), ("copies", 2, sizes["copies"])
        ):
            for n, documents in lengths.items():
                for i in range(documents):
                    jobs.append(_chain_job(family, shape, count, n, i, rng, in_dir))
    return jobs


def _chain_job(family, shape, count, n, i, rng, in_dir):
    doc, adjacency = gen.chain(family, n, count, rng)
    expected = chain_classes(adjacency)
    assert len(expected) == n // count, "generator broke the closed form"
    path = _write_doc(in_dir, f"{shape}-{family}-{n}-{i}", doc)
    return Job(
        f"minimize/{family}/{shape}/{n}/{i}", ("minimize", path),
        outputs=("quotient.json", "projection.json", "partition.json"),
        check=_partition_check(doc["states"], lambda: expected), states=n,
    )


def _wellpoint_iso_jobs(sizes, rng, in_dir):
    """wellpoint --order both, cancellation gadgets, and iso on renamed copies."""
    jobs = []
    for family, n in sizes["wellpoint"].items():
        doc, _ = gen.sparse(family, n, rng)
        path = _write_doc(in_dir, f"wp-{family}-{n}", doc)
        jobs.append(Job(
            f"wellpoint/{family}/{n}", ("wellpoint", path, "--order", "both"),
            outputs=("wellpoint-simple-first.json", "wellpoint-reach-first.json"),
            check=_agree_check("true", None), states=n,
        ))
    for k in sizes["gadget"]:
        doc, _ = gen.cancel_gadget(k, rng)
        path = _write_doc(in_dir, f"gadget-{k}", doc)
        jobs.append(Job(
            f"wellpoint/gadget/{k}", ("wellpoint", path, "--order", "both"),
            outputs=("wellpoint-simple-first.json", "wellpoint-reach-first.json"),
            expect_exit=1, check=_agree_check("false", (1, k + 2)),
            states=len(doc["states"]),
        ))
    for family, n in sizes["iso"].items():
        doc, _ = gen.sparse(family, n, rng)
        copy = gen.renamed_copy(doc, rng)
        a = _write_doc(in_dir, f"iso-{family}-{n}-a", doc)
        b = _write_doc(in_dir, f"iso-{family}-{n}-b", copy)
        for pointed in (True, False):
            flag = ("--pointed",) if pointed else ()
            jobs.append(Job(
                f"iso/{'pointed' if pointed else 'unpointed'}/{family}/{n}",
                ("iso", a, b, *flag),
                check=_iso_check(doc, copy, pointed), states=n,
            ))
    return jobs


def _agree_check(agree: str, closed_form_sizes: Optional[tuple]):
    def check(result: Result) -> list:
        problems = []
        if result.stdout != f"agree: {agree}\n":
            problems.append(f"expected 'agree: {agree}', got {result.stdout!r}")
        if closed_form_sizes is not None:
            got = tuple(
                len(json.loads(result.files[f"wellpoint-{order}.json"])["states"])
                for order in ("simple-first", "reach-first")
            )
            if got != closed_form_sizes:
                problems.append(f"order results have {got} states, expected {closed_form_sizes}")
        return problems

    return check


def _iso_check(doc: dict, copy: dict, pointed: bool):
    def check(result: Result) -> list:
        import coalgmin  # on the path once run.py has set it up

        a = coalgmin.parse_coalgebra(json.dumps(doc))
        b = coalgmin.parse_coalgebra(json.dumps(copy))
        if not pointed:
            a, b = coalgmin.underlying(a), coalgmin.underlying(b)
        h = coalgmin.parse_morphism(result.stdout, a, b)
        problems = []
        if not coalgmin.check_homomorphism(h):
            problems.append("printed map is not a homomorphism")
        if not h.is_bijective():
            problems.append("printed map is not a bijection")
        return problems

    return check


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

SUITE_NAMES = (
    "reach-oracle",
    "simple-oracle",
    "universality",
    "functoriality",
    "commutation",
    "quotient-closure",
    "lemmas",
    "dfa-language",
)


def _suite_jobs(seeds: int) -> list:
    # The seed window is fixed: the cost of one suite call differs by orders
    # of magnitude between seed chunks (the lemmas hom search), so a window
    # chosen by the seed would make run-to-run spread exceed any useful bound.
    # ``props --seeds k`` runs the suite over seeds 0 .. k - 1.
    return [
        Job(f"suite/{name}/0-{seeds - 1}", ("props", "--suite", name, "--seeds", str(seeds)),
            check=_suite_check, states=seeds)
        for name in SUITE_NAMES
    ]


def _suite_check(result: Result) -> list:
    lines = result.stdout.splitlines()
    bad = [line for line in lines if not line.startswith("ok ")]
    if not lines:
        return ["suite printed no reports"]
    return [f"suite report failed: {bad[0]}"] if bad else []
