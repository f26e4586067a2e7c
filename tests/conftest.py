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
    return Coalgebra.make(spec, sorted(structure), structure)


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
    return Coalgebra.make(spec, sorted(structure), structure)
