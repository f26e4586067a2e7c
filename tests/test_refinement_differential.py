"""Worklist refinement against the naive global-round oracle and closed forms."""

from fractions import Fraction

import pytest

from coalgmin import (
    DfaFunctor,
    LabelledFunctor,
    Partition,
    PowersetFunctor,
    WeightedFunctor,
    behavioural_classes,
    naive_refinement,
    parse_coalgebra,
    random_coalgebra,
)
from conftest import chains, corpus_path

# The rational pool has negative weights, so mapped weights cancel.
FAMILIES = {
    "dfa": (DfaFunctor(("a", "b")), None),
    "powerset": (PowersetFunctor(), None),
    "labelled": (LabelledFunctor(("a", "b")), None),
    "bag": (WeightedFunctor("natural"), (1, 2, 3)),
    "rational": (WeightedFunctor("rational"), (1, -1, 2, -2, Fraction(1, 2))),
}
SEEDS = {40: range(3), 120: range(2), 300: range(2)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", sorted(SEEDS))
@pytest.mark.parametrize("sparse", [True, False], ids=["density-3/n", "density-0.05"])
def test_random_systems_match_naive_refinement(family, n, sparse):
    spec, pool = FAMILIES[family]
    density = 3 / n if sparse else 0.05
    for seed in SEEDS[n]:
        c = random_coalgebra(spec, n, seed, weight_pool=pool, density=density)
        assert behavioural_classes(c) == naive_refinement(c), seed


@pytest.mark.parametrize("name", ["cancel_fork", "cancel_fork_loops"])
def test_cancellation_corpus_matches_naive_refinement(name):
    c = parse_coalgebra(corpus_path(name).read_text())
    assert behavioural_classes(c) == naive_refinement(c)


CHAIN_FUNCTORS = {
    "dfa": DfaFunctor(("a",)),
    "powerset": PowersetFunctor(),
    "labelled": LabelledFunctor(("a",)),
    "rational": WeightedFunctor("rational"),
}


@pytest.mark.parametrize("family", sorted(CHAIN_FUNCTORS))
@pytest.mark.parametrize("copies", [1, 2])
def test_chain_classes_are_the_distances_to_the_end(family, copies):
    length = 300 // copies
    c = chains(CHAIN_FUNCTORS[family], length, copies)
    expected = Partition.of(
        [f"c{k}_{i}" for k in range(copies)] for i in range(length)
    )
    assert behavioural_classes(c) == expected
