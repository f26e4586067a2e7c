"""Simple quotients: refinement against the partition and language oracles."""

import itertools

import pytest

from coalgmin import (
    DfaFunctor,
    Partition,
    behavioural_classes,
    check_homomorphism,
    dfa_language_oracle,
    enumerate_compatible_partitions,
    is_simple,
    random_coalgebra,
    simple_quotient,
)
from coalgmin import systems
from coalgmin.errors import OracleBoundExceeded, WrongFunctor
from coalgmin.functors import PowersetFunctor
from coalgmin.oracles import language_kernel
from coalgmin.core import Coalgebra


def test_branching_system_quotient():
    q, e, p = simple_quotient(systems.ts_branching())
    assert p.blocks == (("x", "y"), ("z",))
    assert q.states == ("x", "z")
    assert q.structure["x"] == {"x", "z"}
    assert q.structure["z"] == frozenset()
    assert e.is_surjective()
    assert check_homomorphism(e)
    assert is_simple(q)


def test_weighted_pair_merge_quotient():
    q, _, p = simple_quotient(systems.weighted_pair_merge())
    assert p.blocks == (("x",), ("y1", "y2"))
    assert q.states == ("x", "y1")
    assert dict(q.structure["x"]) == {"y1": -3}
    assert dict(q.structure["y1"]) == {"y1": 5}


def test_dfa_classes_and_two_state_minimal_automaton():
    c = systems.dfa_no_trailing_b()
    assert behavioural_classes(c).blocks == (("p", "q", "s"), ("r",))
    q, _, _ = simple_quotient(c)
    assert q.states == ("p", "r")
    f = q.functor
    assert q.structure["p"] == f.struct(True, {"a": "p", "b": "r"})
    assert q.structure["r"] == f.struct(False, {"a": "p", "b": "r"})
    assert q.point == "p"


def test_two_cycle_states_merge_and_the_result_is_discrete():
    q, _, p = simple_quotient(systems.ts_two_cycle())
    assert not p.is_discrete  # the 2-cycle states are bisimilar, they merge
    q2, _, p2 = simple_quotient(q)
    assert p2.is_discrete


def test_is_simple_endpoints():
    assert not is_simple(systems.ts_branching())
    assert is_simple(simple_quotient(systems.ts_branching())[0])
    assert is_simple(Coalgebra(PowersetFunctor(), (), {}))
    assert is_simple(systems.ts_single_loop())


def test_quotient_is_idempotent():
    for builder in systems.ALL_SYSTEMS.values():
        q, _, _ = simple_quotient(builder())
        assert is_simple(q)


def test_refinement_rounds_are_monotone():
    # every compatible partition refines the behavioural one
    c = systems.ts_branching()
    classes = behavioural_classes(c)
    for p in enumerate_compatible_partitions(c):
        assert p.refines(classes)


def test_compatible_partition_enumeration_on_the_branching_system():
    c = systems.ts_branching()
    partitions = [p.blocks for p in enumerate_compatible_partitions(c)]
    assert (("x", "y"), ("z",)) in partitions
    assert (("x",), ("y",), ("z",)) in partitions
    assert (("x", "z"), ("y",)) not in partitions
    assert behavioural_classes(c) in enumerate_compatible_partitions(c)


def test_single_state_has_exactly_one_partition():
    c = systems.ts_single_loop()
    assert [p.blocks for p in enumerate_compatible_partitions(c)] == [(("q0",),)]


def test_quotient_of_the_empty_coalgebra_is_empty():
    empty = Coalgebra(PowersetFunctor(), (), {})
    q, e, p = simple_quotient(empty)
    assert q.states == ()
    assert p.blocks == ()
    assert e.mapping == {}


def test_cancellation_merges_everything_compatibly():
    c = systems.cancel_fork()
    blocks = [p.blocks for p in enumerate_compatible_partitions(c)]
    assert (("a",), ("b1", "b2")) in blocks
    assert (("a", "b1", "b2"),) in blocks


def test_partition_oracle_bound():
    c = random_coalgebra(PowersetFunctor(), 9, 3, density=0.3)
    with pytest.raises(OracleBoundExceeded):
        enumerate_compatible_partitions(c)


# -- language oracle ----------------------------------------------------------


def test_language_oracle_requires_a_dfa():
    with pytest.raises(WrongFunctor):
        dfa_language_oracle(systems.ts_branching(), 3)


def test_language_oracle_at_length_zero_is_the_accepting_flag():
    c = systems.dfa_no_trailing_b()
    langs = dfa_language_oracle(c, 0)
    assert langs["q"] == frozenset({""})
    assert langs["r"] == frozenset()


def test_merged_dfa_states_accept_the_same_bounded_language():
    c = systems.dfa_no_trailing_b()
    langs = dfa_language_oracle(c, 2 * len(c.states))
    assert langs["q"] == langs["p"] == langs["s"]
    assert langs["r"] != langs["q"]
    # the common language: all words up to the bound not ending in b
    words = {
        w
        for k in range(9)
        for w in map("".join, itertools.product("ab", repeat=k))
        if not w.endswith("b")
    }
    assert langs["q"] == words


@pytest.mark.parametrize("seed", range(40))
def test_refinement_agrees_with_the_language_kernel(seed):
    c = random_coalgebra(
        DfaFunctor(("a", "b")), 1 + seed % 6, seed, density=0.5, pointed=True
    )
    assert behavioural_classes(c) == language_kernel(c, 2 * len(c.states))
