"""Reachable parts: BFS closure against the subset-enumeration oracle."""

import pytest

from coalgmin import (
    check_homomorphism,
    check_least_subobject,
    check_minimal_iff_incoming_epi,
    commutation_check,
    enumerate_pointed_subcoalgebras,
    is_reachable,
    random_coalgebra,
    reachable_part,
    tree_unravel,
    underlying,
    well_pointed_modification,
)
from coalgmin import systems
from coalgmin.errors import NotPointed, OracleBoundExceeded
from coalgmin.functors import PowersetFunctor
from coalgmin.suites import FUNCTOR_FAMILIES


def test_whole_dfa_is_reachable_from_its_point():
    c = systems.dfa_no_trailing_b()
    part, inclusion = reachable_part(c)
    # hand BFS from s: support(s) = {q, r}, support(q) adds p
    assert part.states == ("s", "q", "r", "p")
    assert set(part.states) == set(c.states)
    assert check_homomorphism(inclusion)
    assert inclusion.is_injective()
    assert is_reachable(c)


def test_feeder_states_are_pruned():
    c = systems.ts_cycle_with_feeder()
    part, _ = reachable_part(c)
    assert part.states == ("q0", "q1")
    assert part.structure["q0"].successors == {"q1"}
    assert not is_reachable(c)


def test_single_state_without_successors_is_its_own_reachable_part():
    c = systems.ts_single_loop()
    part, _ = reachable_part(c)
    assert part.states == c.states
    assert is_reachable(c)


def test_reachable_part_is_idempotent_on_the_nose():
    for builder in (
        systems.ts_cycle_with_feeder,
        systems.dfa_no_trailing_b,
        systems.cancel_fork_loops,
    ):
        part, _ = reachable_part(builder())
        again, _ = reachable_part(part)
        assert again == part


def test_cancellation_quotient_is_not_reachable():
    from coalgmin import Partition, apply_partition_quotient

    c = systems.cancel_fork()
    q, _ = apply_partition_quotient(c, Partition.of([("a",), ("b1", "b2")]))
    assert is_reachable(c)
    assert not is_reachable(q)


def test_subcoalgebra_enumeration_on_the_feeder_cycle():
    c = systems.ts_cycle_with_feeder()
    subsets = enumerate_pointed_subcoalgebras(c)
    assert subsets == [
        ("q0", "q1"),
        ("q0", "q1", "q3"),
        ("q0", "q1", "q2", "q3"),
    ]


def test_reachable_input_has_only_the_full_subcoalgebra():
    c = systems.ts_two_cycle()
    assert enumerate_pointed_subcoalgebras(c) == [("q0", "q1")]


def test_lonely_point_has_one_subcoalgebra():
    ps = PowersetFunctor()
    from coalgmin import Coalgebra

    c = Coalgebra(ps, ("x",), {"x": ps.struct(())}, "x")
    assert enumerate_pointed_subcoalgebras(c) == [("x",)]


@pytest.mark.parametrize(
    "operation",
    [
        reachable_part,
        enumerate_pointed_subcoalgebras,
        is_reachable,
        well_pointed_modification,
        commutation_check,
        tree_unravel,
        lambda c: check_minimal_iff_incoming_epi(c, [c]),
        check_least_subobject,
    ],
    ids=[
        "reachable_part",
        "enumerate_pointed_subcoalgebras",
        "is_reachable",
        "well_pointed_modification",
        "commutation_check",
        "tree_unravel",
        "check_minimal_iff_incoming_epi",
        "check_least_subobject",
    ],
)
def test_pointed_only_operations_reject_an_unpointed_coalgebra(operation):
    with pytest.raises(NotPointed):
        operation(underlying(systems.ts_branching()))


def test_oracle_bound_is_enforced():
    c = random_coalgebra(PowersetFunctor(), 13, 0, density=0.2, pointed=True)
    with pytest.raises(OracleBoundExceeded):
        enumerate_pointed_subcoalgebras(c)


@pytest.mark.parametrize("seed", range(40))
def test_bfs_equals_subcoalgebra_intersection(seed):
    c = random_coalgebra(
        PowersetFunctor(), 1 + seed % 6, seed, density=0.4, pointed=True
    )
    part, _ = reachable_part(c)
    subsets = enumerate_pointed_subcoalgebras(c)
    intersection = frozenset(c.states)
    for subset in subsets:
        intersection &= frozenset(subset)
    assert frozenset(part.states) == intersection


def closure_from_the_point(c) -> set:
    """{point} ∪ supports, iterated to a fixpoint with no queue and no order."""
    closed = {c.point}
    while True:
        grown = closed.union(*(c.functor.support(c.structure[s]) for s in closed))
        if grown == closed:
            return closed
        closed = grown


@pytest.mark.parametrize("family,spec,pool", FUNCTOR_FAMILIES, ids=[f[0] for f in FUNCTOR_FAMILIES])
def test_reachable_part_is_the_naive_closure_at_hundreds_of_states(family, spec, pool):
    sizes = []
    for n in (200, 400):
        for degree in (1.5, 3):
            c = random_coalgebra(spec, n, 7, weight_pool=pool, density=degree / n, pointed=True)
            part, inclusion = reachable_part(c)
            assert set(part.states) == closure_from_the_point(c)
            assert len(part.states) == len(set(part.states))
            assert part.states[0] == c.point
            assert inclusion.mapping == {s: s for s in part.states}
            assert reachable_part(part)[0] == part
            sizes.append(len(part.states))
    assert max(sizes) > 100  # the sparse draws still reach far
