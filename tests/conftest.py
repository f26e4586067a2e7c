import random
from pathlib import Path

import pytest

from coalgmin import DfaFunctor, LabelledFunctor, PowersetFunctor
from coalgmin.core import Coalgebra

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.json"


def chains(spec, length: int, copies: int = 1) -> Coalgebra:
    """Disjoint one-letter chains c{k}_0 -> ... -> c{k}_{length - 1}.

    Only the end of a chain is special: for DFAs it is the only accepting
    state and loops to itself; for the other functors it has no successors.
    Weighted edges all carry -1/2.  The behavioural classes are therefore the
    distances to the end.
    """
    structure = {}
    for k in range(copies):
        for i in range(length):
            nxt = f"c{k}_{i + 1}" if i + 1 < length else None
            if isinstance(spec, DfaFunctor):
                t = spec.struct(nxt is None, {"a": nxt or f"c{k}_{i}"})
            elif isinstance(spec, PowersetFunctor):
                t = spec.struct([nxt] if nxt else [])
            elif isinstance(spec, LabelledFunctor):
                t = spec.struct([("a", nxt)] if nxt else [])
            else:
                t = spec.struct({nxt: "-1/2"} if nxt else {})
            structure[f"c{k}_{i}"] = t
    return Coalgebra(spec, sorted(structure), structure)


def hubs(spec, length: int, count: int = 10) -> Coalgebra:
    """A powerset chain of ``length`` states plus ``count`` hub states
    h0, h1, ... with an edge to every chain state.

    The hubs are behaviourally equal, and every chain state is alone in its
    class, so the classes number ``length + 1``.  A hub has out-degree
    ``length``, which is what makes re-evaluating whole signatures quadratic.
    """
    chain = chains(spec, length)
    structure = dict(chain.structure)
    for h in range(count):
        structure[f"h{h}"] = spec.struct(chain.states)
    return Coalgebra(spec, sorted(structure), structure)


def renamed_copy(c: Coalgebra, seed: int) -> tuple[Coalgebra, dict]:
    """c with its states renamed r0, r1, ... in a seeded order and its carrier
    shuffled, and the renaming."""
    rng = random.Random(seed)
    renaming = {s: f"r{k}" for k, s in enumerate(rng.sample(c.states, len(c.states)))}
    spec = c.functor
    structure = {renaming[s]: spec.fmap(renaming, c.structure[s]) for s in c.states}
    states = rng.sample([renaming[s] for s in c.states], len(c.states))
    point = renaming[c.point] if c.point is not None else None
    return Coalgebra(spec, tuple(states), structure, point), renaming


def moved_edge(c: Coalgebra, seed: int) -> Coalgebra:
    """A near miss of c: one state's edges into one target t now go to another
    state u (its structure is mapped by t |-> u), chosen by the seed."""
    rng = random.Random(seed)
    spec = c.functor
    sources = [s for s in c.states if spec.support(c.structure[s])]
    if not sources or len(c.states) < 2:
        return c
    s = rng.choice(sources)
    t = rng.choice(sorted(spec.support(c.structure[s])))
    u = rng.choice([v for v in c.states if v != t])
    mapping = {v: v for v in c.states}
    mapping[t] = u
    structure = dict(c.structure)
    structure[s] = spec.fmap(mapping, c.structure[s])
    return Coalgebra(spec, c.states, structure, c.point)
