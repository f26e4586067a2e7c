"""Seeded input documents for the benchmark, built directly as JSON payloads.

Every generator draws O(edges) random numbers from the ``random.Random`` it
is given, so a document of n states with mean out-degree d costs O(n d) to
make.  (``coalgmin.oracles.random_coalgebra`` draws once per pair of states,
which is O(n^2) per document and too slow at thousands of states.)

Each generator returns ``(doc, adjacency)``: the document as a JSON-ready
dict, and the successor lists by state id, which the benchmark's own checks
use as ground truth without calling the library.
"""

from __future__ import annotations

import random
from collections import deque

FAMILIES = ("dfa", "powerset", "labelled", "bag", "rational")

FUNCTOR_PAYLOADS = {
    "dfa": {"kind": "dfa", "alphabet": ["a", "b"]},
    "powerset": {"kind": "powerset"},
    "labelled": {"kind": "labelled-powerset", "labels": ["a", "b"]},
    "bag": {"kind": "weighted", "monoid": "natural"},
    "rational": {"kind": "weighted", "monoid": "rational"},
}

# One-letter versions for the chains: a chain state has exactly one move.
CHAIN_FUNCTOR_PAYLOADS = dict(
    FUNCTOR_PAYLOADS,
    dfa={"kind": "dfa", "alphabet": ["a"]},
    labelled={"kind": "labelled-powerset", "labels": ["a"]},
)

POINT_CANDIDATES = 8

BAG_WEIGHTS = ("1", "2", "3")
RATIONAL_WEIGHTS = ("1", "-1", "2", "1/2", "-3/2")


def _names(n: int, rng: random.Random, prefix: str = "s") -> list[str]:
    """n distinct state ids whose numbering is a seeded permutation."""
    labels = list(range(n))
    rng.shuffle(labels)
    return [f"{prefix}{k}" for k in labels]


def _structure(family: str, targets: list[str], rng: random.Random, accepting=False):
    """The document form of one state's successors, for the given targets."""
    if family == "dfa":
        return {"accepting": accepting, "next": dict(zip(("a", "b"), targets))}
    if family == "powerset":
        return sorted(set(targets))
    if family == "labelled":
        return sorted({(rng.choice(("a", "b")), t) for t in targets})
    pool = BAG_WEIGHTS if family == "bag" else RATIONAL_WEIGHTS
    return {t: rng.choice(pool) for t in targets}


def sparse(family: str, n: int, rng: random.Random):
    """A pointed random system of n states with mean out-degree about 3.

    DFA states have exactly two moves; the other families draw 0 to 6
    successor edges per state, uniformly, so some states are dead ends.  The
    carrier is listed in a seeded order.  The point is the one among the
    first POINT_CANDIDATES generated states that reaches the most states
    (the earliest on ties): a random point reaches only a handful of states
    about one time in six, which would make the cost of ``reach`` swing
    between seeds.
    """
    ids = _names(n, rng)
    structure = {}
    adjacency = {}
    for s in ids:
        k = 2 if family == "dfa" else rng.randint(0, 6)
        targets = [ids[rng.randrange(n)] for _ in range(k)]
        t = _structure(family, targets, rng, accepting=rng.random() < 0.5)
        if family == "labelled":
            t = [list(e) for e in t]
        structure[s] = t
        adjacency[s] = sorted(set(targets))
    states = list(ids)
    rng.shuffle(states)
    doc = {
        "functor": FUNCTOR_PAYLOADS[family],
        "states": states,
        "structure": structure,
        "point": max(ids[:POINT_CANDIDATES], key=lambda s: len(reachable(s, adjacency))),
    }
    return doc, adjacency


def reachable(point: str, adjacency: dict) -> set:
    """The states reachable from ``point`` along the successor lists (BFS)."""
    seen = {point}
    queue = deque([point])
    while queue:
        for y in adjacency[queue.popleft()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def chain(family: str, n: int, copies: int, rng: random.Random):
    """``copies`` disjoint one-letter chains of n // copies states each.

    Only the end of a chain is special: for DFAs it is the only accepting
    state and loops to itself, for the other families it has no successors.
    States are therefore told apart only by their distance to the end, which
    global-round refinement needs about n // copies rounds to find.  The
    behavioural classes are exactly the n // copies distances.  Weighted
    chains use one seeded weight on every edge, a small integer so that every
    seed costs the same arithmetic.
    """
    length = n // copies
    ids = _names(length * copies, rng, prefix="x")
    weight = rng.choice(BAG_WEIGHTS)
    structure = {}
    adjacency = {}
    for c in range(copies):
        run = ids[c * length:(c + 1) * length]
        for i, s in enumerate(run):
            nxt = run[i + 1] if i + 1 < length else None
            if family == "dfa":
                structure[s] = {"accepting": nxt is None, "next": {"a": nxt or s}}
            elif family == "powerset":
                structure[s] = [nxt] if nxt else []
            elif family == "labelled":
                structure[s] = [["a", nxt]] if nxt else []
            else:
                structure[s] = {nxt: weight} if nxt else {}
            adjacency[s] = [nxt or s] if family == "dfa" else ([nxt] if nxt else [])
    states = list(ids)
    rng.shuffle(states)
    doc = {
        "functor": CHAIN_FUNCTOR_PAYLOADS[family],
        "states": states,
        "structure": structure,
        "point": ids[0],
    }
    return doc, adjacency


def cancel_gadget(k: int, rng: random.Random):
    """The cancel_fork_loops system scaled up by two identical k-state tails.

    The point sends weight w to b1 and -w to b2.  Each of b1 and b2 starts a
    chain of k further states with position-dependent weights that ends in a
    self-loop, and the two chains are identical, so b1 and b2 are
    behaviourally equal.  Quotienting first cancels the point's weights and
    leaves one state; taking the reachable part first keeps both chains, whose
    quotient still has k + 2 states.  The two orders must disagree.
    """
    w = rng.choice(("3", "1/2", "5"))
    point = "a"
    structure = {point: {"b1_0": w, "b2_0": "-" + w}}
    for side in ("b1", "b2"):
        for i in range(k + 1):
            s = f"{side}_{i}"
            structure[s] = {f"{side}_{i + 1}": str(i + 2)} if i < k else {s: "1"}
    states = [point] + sorted(s for s in structure if s != point)
    doc = {
        "functor": FUNCTOR_PAYLOADS["rational"],
        "states": states,
        "structure": structure,
        "point": point,
    }
    return doc, None


def renamed_copy(doc: dict, rng: random.Random) -> dict:
    """An isomorphic copy of ``doc``: fresh state ids, carrier shuffled."""
    fresh = _names(len(doc["states"]), rng, prefix="r")
    rename = dict(zip(doc["states"], fresh))
    kind = doc["functor"]["kind"]
    structure = {}
    for s, t in doc["structure"].items():
        if kind == "dfa":
            t = {
                "accepting": t["accepting"],
                "next": {a: rename[x] for a, x in t["next"].items()},
            }
        elif kind == "powerset":
            t = [rename[x] for x in t]
        elif kind == "labelled-powerset":
            t = [[label, rename[x]] for label, x in t]
        else:
            t = {rename[x]: w for x, w in t.items()}
        structure[rename[s]] = t
    states = [rename[s] for s in doc["states"]]
    rng.shuffle(states)
    copy = {"functor": doc["functor"], "states": states, "structure": structure}
    if "point" in doc:
        copy["point"] = rename[doc["point"]]
    return copy
