"""Work of the refinement and of the quotient, counted exactly.

The functors below count their ``refinement_edges`` and ``fmap`` calls, and
the refinement returns its number of edge visits, so the bounds hold on any
machine.  Refinement takes each state's edges once and visits at most
2 (n + m) ceil(log2 n) edges for n states and m edges: on random sparse
systems, on a chain that global refinement rounds need n**2 evaluations for,
and on hub states whose whole signatures a worklist would rebuild every time
one successor moves.  Building and certifying the quotient afterwards takes
one ``fmap`` per state.
"""

import math
from collections import Counter
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
from coalgmin.observability import _refinement_fixpoint
from conftest import chains, hubs


@dataclass(frozen=True)
class _Counts:
    calls: Counter = field(default_factory=Counter, compare=False, repr=False)

    def fmap(self, mapping, t):
        self.calls["fmap"] += 1
        return super().fmap(mapping, t)

    def refinement_edges(self, t, index):
        self.calls["refinement_edges"] += 1
        return super().refinement_edges(t, index)


@dataclass(frozen=True)
class CountingDfa(_Counts, DfaFunctor):
    pass


@dataclass(frozen=True)
class CountingPowerset(_Counts, PowersetFunctor):
    pass


@dataclass(frozen=True)
class CountingWeighted(_Counts, WeightedFunctor):
    pass


def _edges(c):
    return sum(len(c.functor.support(c.struct_of(x))) for x in c.states)


def _refine_counting(c):
    """The partition and edge visits of c's refinement, which must take each
    state's edges exactly once and make no ``fmap`` call."""
    spec = c.functor
    spec.calls.clear()
    partition, visits = _refinement_fixpoint(c)
    assert spec.calls == {"refinement_edges": len(c.states)}
    return partition, visits


@pytest.mark.parametrize(
    "spec",
    [CountingDfa(("a",)), CountingPowerset(), CountingWeighted("rational")],
    ids=["dfa", "powerset", "weighted"],
)
def test_chain_takes_linearly_many_evaluations(spec):
    n = 2000
    c = chains(spec, n)
    partition, visits = _refine_counting(c)
    assert partition.is_discrete
    assert visits <= 3 * n


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
def test_sparse_systems_visit_at_most_2_n_plus_m_log_n_edges(spec, pool, seed):
    n = 800
    c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n)
    m = _edges(c)
    partition, visits = _refine_counting(c)
    assert partition == behavioural_classes(c)
    assert m <= visits <= 2 * (n + m) * math.ceil(math.log2(n))


def test_hubs_visit_at_most_2_n_plus_m_log_n_edges():
    c = hubs(CountingPowerset(), 2000)
    n, m = len(c.states), _edges(c)
    partition, visits = _refine_counting(c)
    assert len(partition.blocks) == 2001
    assert m <= visits <= 2 * (n + m) * math.ceil(math.log2(n))


@SPARSE
@pytest.mark.parametrize("seed", [0, 1])
def test_quotient_evaluates_each_state_once(spec, pool, seed):
    n = 800
    c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n)
    partition = behavioural_classes(c)
    spec.calls.clear()
    apply_partition_quotient(c, partition)
    assert spec.calls["fmap"] == n


@SPARSE
def test_simple_quotient_adds_one_evaluation_per_state_to_refinement(spec, pool):
    n = 800
    c = random_coalgebra(spec, n, 0, weight_pool=pool, density=3 / n)
    spec.calls.clear()
    simple_quotient(c)
    assert spec.calls == {"refinement_edges": n, "fmap": n}


def test_quotient_of_a_chain_evaluates_each_state_once():
    spec = CountingDfa(("a",))
    n = 2000
    c = chains(spec, n, copies=2)
    partition = behavioural_classes(c)
    spec.calls.clear()
    apply_partition_quotient(c, partition)
    assert spec.calls["fmap"] == 2 * n
