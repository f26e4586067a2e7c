"""Signature evaluations of the worklist refinement, counted exactly.

The functors below count their ``fmap`` calls, so the bounds hold on any
machine: n + m * ceil(log2 n) for n states and m edges, and about 2n on a
chain that global refinement rounds need n**2 evaluations for.  Building and
certifying the quotient afterwards takes one evaluation per state.
"""

import math
from dataclasses import dataclass, field

import pytest

from coalgmin import (
    DfaFunctor,
    PowersetFunctor,
    WeightedFunctor,
    apply_partition_quotient,
    behavioural_classes,
    random_coalgebra,
    simple_quotient,
)
from conftest import chains


@dataclass(frozen=True)
class _CountsFmap:
    calls: list = field(default_factory=lambda: [0], compare=False, repr=False)

    def fmap(self, mapping, t):
        self.calls[0] += 1
        return super().fmap(mapping, t)


@dataclass(frozen=True)
class CountingDfa(_CountsFmap, DfaFunctor):
    pass


@dataclass(frozen=True)
class CountingPowerset(_CountsFmap, PowersetFunctor):
    pass


@dataclass(frozen=True)
class CountingWeighted(_CountsFmap, WeightedFunctor):
    pass


@pytest.mark.parametrize(
    "spec",
    [CountingDfa(("a",)), CountingPowerset(), CountingWeighted("rational")],
    ids=["dfa", "powerset", "weighted"],
)
def test_chain_takes_linearly_many_evaluations(spec):
    n = 2000
    c = chains(spec, n)
    assert behavioural_classes(c).is_discrete
    assert spec.calls[0] <= 3 * n


SPARSE = pytest.mark.parametrize(
    "spec, pool",
    [
        (CountingDfa(("a", "b")), None),
        (CountingPowerset(), None),
        (CountingWeighted("natural"), (1, 2, 3)),
        (CountingWeighted("rational"), (1, -1, 2, -2)),
    ],
    ids=["dfa", "powerset", "bag", "rational"],
)


@SPARSE
@pytest.mark.parametrize("seed", [0, 1])
def test_sparse_systems_take_at_most_n_plus_m_log_n_evaluations(spec, pool, seed):
    n = 800
    c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n)
    m = sum(len(spec.support(c.struct_of(x))) for x in c.states)
    spec.calls[0] = 0
    behavioural_classes(c)
    assert 0 < spec.calls[0] <= n + m * math.ceil(math.log2(n))


@SPARSE
@pytest.mark.parametrize("seed", [0, 1])
def test_quotient_evaluates_each_state_once(spec, pool, seed):
    n = 800
    c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n)
    partition = behavioural_classes(c)
    spec.calls[0] = 0
    apply_partition_quotient(c, partition)
    assert spec.calls[0] == n


@SPARSE
def test_simple_quotient_adds_one_evaluation_per_state_to_refinement(spec, pool):
    n = 800
    c = random_coalgebra(spec, n, 0, weight_pool=pool, density=3 / n)
    m = sum(len(spec.support(c.struct_of(x))) for x in c.states)
    spec.calls[0] = 0
    behavioural_classes(c)
    refinement = spec.calls[0]
    spec.calls[0] = 0
    simple_quotient(c)
    assert spec.calls[0] == refinement + n
    assert spec.calls[0] <= n + m * math.ceil(math.log2(n)) + n


def test_quotient_of_a_chain_evaluates_each_state_once():
    spec = CountingDfa(("a",))
    n = 2000
    c = chains(spec, n, copies=2)
    partition = behavioural_classes(c)
    spec.calls[0] = 0
    apply_partition_quotient(c, partition)
    assert spec.calls[0] == 2 * n
