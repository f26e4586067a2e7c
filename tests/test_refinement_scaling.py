"""Work of the refinement and of the quotient, counted exactly.

The functors below count their ``split`` and ``fmap`` calls, and
the refinement engine returns its number of edge visits, so the bounds hold
on any machine.  Refinement takes each state's edges once and visits at most
2 (n + m) ceil(log2 n) edges for n states and m edges: on random sparse
systems, on a chain that global refinement rounds need n**2 evaluations for,
and on hub states whose whole signatures a worklist would rebuild every time
one successor moves.  Building and certifying the quotient afterwards takes
one ``fmap`` per state.

The isomorphism search runs the same refinement on a + b.  Its engine runs
are counted too: a renamed copy of a well-pointed system takes one, and
``commutation_check`` needs no search at all.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import pytest

from coalgmin import (
    DfaFunctor,
    LabelledFunctor,
    PowersetFunctor,
    WeightedFunctor,
    apply_partition_quotient,
    are_isomorphic,
    behavioural_classes,
    commutation_check,
    random_coalgebra,
    simple_quotient,
    systems,
    well_pointed_modification,
    quotient,
    wellpointed,
)
from coalgmin.oracles import naive_refinement
from coalgmin.suites import FUNCTOR_FAMILIES, seeded_instance
from conftest import chains, hubs, renamed_copy


@dataclass(frozen=True)
class _Counts:
    calls: Counter = field(default_factory=Counter, compare=False, repr=False)

    def fmap(self, mapping, t):
        self.calls["fmap"] += 1
        return super().fmap(mapping, t)

    def split(self, t):
        self.calls["split"] += 1
        return super().split(t)


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
    return sum(len(c.functor.support(c.structure[x])) for x in c.states)


def _refine_counting(c, monkeypatch):
    """The partition and edge visits of c's refinement, which must take each
    state's edges exactly once and make no ``fmap`` call."""
    visits = []
    refine = quotient._refine

    def counting(n, rows, observe):
        members, count = refine(n, rows, observe)
        visits.append(count)
        return members, count

    monkeypatch.setattr(quotient, "_refine", counting)
    spec = c.functor
    spec.calls.clear()
    partition = behavioural_classes(c)
    assert spec.calls == {"split": len(c.states)}
    return partition, visits[0]


@pytest.mark.parametrize(
    "spec",
    [CountingDfa(("a",)), CountingPowerset(), CountingWeighted("rational")],
    ids=["dfa", "powerset", "weighted"],
)
def test_chain_takes_linearly_many_evaluations(spec, monkeypatch):
    n = 2000
    c = chains(spec, n)
    partition, visits = _refine_counting(c, monkeypatch)
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
def test_sparse_systems_visit_at_most_2_n_plus_m_log_n_edges(spec, pool, seed, monkeypatch):
    n = 800
    c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n)
    m = _edges(c)
    partition, visits = _refine_counting(c, monkeypatch)
    assert partition == naive_refinement(c)
    assert m <= visits <= 2 * (n + m) * math.ceil(math.log2(n))


def test_hubs_visit_at_most_2_n_plus_m_log_n_edges(monkeypatch):
    c = hubs(CountingPowerset(), 2000)
    n, m = len(c.states), _edges(c)
    partition, visits = _refine_counting(c, monkeypatch)
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
    assert spec.calls == {"split": n, "fmap": n}


def test_quotient_of_a_chain_evaluates_each_state_once():
    spec = CountingDfa(("a",))
    n = 2000
    c = chains(spec, n, copies=2)
    partition = behavioural_classes(c)
    spec.calls.clear()
    apply_partition_quotient(c, partition)
    assert spec.calls["fmap"] == 2 * n


@pytest.fixture
def engine_runs(monkeypatch):
    """The number of refinement engine runs the isomorphism search makes."""
    runs = []
    refine = wellpointed._refine

    def counting(n, rows, observe):
        runs.append(n)
        return refine(n, rows, observe)

    monkeypatch.setattr(wellpointed, "_refine", counting)
    return runs


@pytest.mark.parametrize(
    "spec, pool",
    [(PowersetFunctor(), None), (WeightedFunctor("rational"), (1, -1, 2, "1/2"))],
    ids=["powerset", "rational"],
)
def test_a_well_pointed_copy_is_matched_in_one_engine_run(spec, pool, engine_runs):
    n = 3200
    c = random_coalgebra(spec, n, 0, weight_pool=pool, density=3 / n, pointed=True)
    minimal = well_pointed_modification(c)
    copy, renaming = renamed_copy(minimal, 0)
    assert len(minimal.states) > n // 2
    assert are_isomorphic(minimal, copy).mapping == renaming
    assert len(engine_runs) == 1


FAMILIES = [
    (DfaFunctor(("a", "b")), None),
    (PowersetFunctor(), None),
    (LabelledFunctor(("a", "b")), None),
    (WeightedFunctor("natural"), (1, 2, 3)),
    (WeightedFunctor("rational"), (1, -1, 2, -2)),
]


@pytest.mark.parametrize("spec, pool", FAMILIES, ids=["dfa", "powerset", "labelled", "bag", "rational"])
@pytest.mark.parametrize("pointed", [True, False])
def test_200_state_renamed_copies_are_found_within_the_budget(spec, pool, pointed):
    n = 200
    for seed in range(2):
        c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n, pointed=pointed)
        copy, _ = renamed_copy(c, seed)
        assert are_isomorphic(c, copy) is not None


def _commutation_instances():
    for _, spec, pool in FUNCTOR_FAMILIES:
        for seed in range(40):
            yield seeded_instance(spec, pool, seed)
    for seed in range(100):  # cancelling weights make some orders disagree
        yield random_coalgebra(
            WeightedFunctor("rational"), 4, seed, weight_pool=(1, -1), density=0.6, pointed=True
        )
    yield systems.cancel_fork_loops()


def test_commutation_check_builds_its_isomorphism_without_a_search(monkeypatch):
    def search(a, b):
        raise AssertionError("commutation_check searched for an isomorphism")

    with monkeypatch.context() as patch:
        patch.setattr(wellpointed, "are_isomorphic", search)
        reports = [commutation_check(c) for c in _commutation_instances()]
    assert 0 < sum(not r.agree for r in reports) < len(reports)
    for report in reports:
        iso = are_isomorphic(report.simple_first, report.reach_first)
        assert report.agree == (iso is not None)
        assert (report.iso and report.iso.mapping) == (iso and iso.mapping)
