"""Compound-block refinement against the naive global-round oracle and closed
forms, and the one-pass quotient of ``simple_quotient`` against the public
``apply_partition_quotient`` of the oracle's partition.  Rational weights are
refined as ints after one common scaling; the oracle sums them as
``Fraction``."""

import math
from fractions import Fraction

import pytest

from coalgmin import (
    Coalgebra,
    DfaFunctor,
    LabelledFunctor,
    Partition,
    PowersetFunctor,
    WeightedFunctor,
    apply_partition_quotient,
    behavioural_classes,
    naive_refinement,
    parse_coalgebra,
    random_coalgebra,
    reachable_part,
    serialize_coalgebra,
    serialize_morphism,
    serialize_partition,
    simple_quotient,
)
from coalgmin import quotient
from coalgmin.core import Coalgebra
from coalgmin.functors import REFINEMENT_SCALE_BITS
from coalgmin.oracles import partition_compatible
from coalgmin.errors import IncompatiblePartition, ValidationError
from coalgmin.suites import FUNCTOR_FAMILIES, seeded_instance
from conftest import chains, corpus_path, hubs
from test_functor_extension import MaybeFunctor

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
def test_random_systems_match_naive_refinement(family, n, sparse, monkeypatch):
    spec, pool = FAMILIES[family]
    density = 3 / n if sparse else 0.05
    weight_types = _refined_weight_types(monkeypatch)
    for seed in SEEDS[n]:
        c = random_coalgebra(spec, n, seed, weight_pool=pool, density=density)
        assert behavioural_classes(c) == naive_refinement(c), seed
    assert weight_types == {int}  # natural and scaled rational weights too


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_classes_restricted_to_the_reachable_part_are_its_classes(family):
    # the argument that lets commutation_check refine once; both rational
    # pools cancel
    spec, pool = FAMILIES[family]
    [(suite_spec, suite_pool)] = [(s, p) for name, s, p in FUNCTOR_FAMILIES if name == family]
    instances = [seeded_instance(suite_spec, suite_pool, seed) for seed in range(40)]
    for seed in range(90):
        n = 1 + seed % 30
        density = (0.05, 0.2, 0.6)[seed % 3]
        instances.append(
            random_coalgebra(spec, n, seed, weight_pool=pool, density=density, pointed=True)
        )
    for c in instances:
        part, _ = reachable_part(c)
        reached = set(part.states)
        restricted = Partition.of(
            kept for b in behavioural_classes(c).blocks if (kept := [s for s in b if s in reached])
        )
        assert restricted == behavioural_classes(part) == naive_refinement(part)


def test_hubs_match_naive_refinement():
    c = hubs(PowersetFunctor(), 300)
    classes = naive_refinement(c)
    assert behavioural_classes(c) == classes
    assert len(classes.blocks) == 301


@pytest.mark.parametrize("degree", [1.5, 3])
def test_cancelling_rational_systems_match_naive_refinement(degree):
    spec = WeightedFunctor("rational")
    pool = (1, -1, Fraction(1, 2), Fraction(-1, 2))
    n = 300
    cancelled = 0
    for seed in range(3):
        c = random_coalgebra(spec, n, seed, weight_pool=pool, density=degree / n)
        classes = naive_refinement(c)
        assert behavioural_classes(c) == classes, seed
        kappa = classes.representative_map()
        for x in c.states:
            t = c.structure[x]
            cancelled += len({kappa[y] for y in spec.support(t)}) > len(spec.fmap(kappa, t).weights)
    assert cancelled  # some state's weights into some class sum to 0


@pytest.mark.parametrize("density", [0.5, 0.9])
def test_the_test_only_maybe_functor_matches_naive_refinement(density):
    for seed in range(3):
        c = random_coalgebra(MaybeFunctor(), 300, seed, density=density)
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


def _documents(quotient, projection, partition):
    return (
        serialize_coalgebra(quotient),
        serialize_morphism(projection),
        serialize_partition(partition),
    )


def _assert_simple_quotient_matches_the_oracle(c):
    partition = naive_refinement(c)
    expected = _documents(*apply_partition_quotient(c, partition), partition)
    assert _documents(*simple_quotient(c)) == expected


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", sorted(SEEDS))
@pytest.mark.parametrize("pointed", [False, True], ids=["unpointed", "pointed"])
def test_simple_quotient_documents_match_the_oracle_quotient(family, n, pointed):
    spec, pool = FAMILIES[family]
    for seed in SEEDS[n]:
        c = random_coalgebra(spec, n, seed, weight_pool=pool, density=3 / n, pointed=pointed)
        _assert_simple_quotient_matches_the_oracle(c)


@pytest.mark.parametrize("name", ["cancel_fork", "cancel_fork_loops"])
def test_simple_quotient_of_the_cancellation_corpus_matches_the_oracle(name):
    _assert_simple_quotient_matches_the_oracle(parse_coalgebra(corpus_path(name).read_text()))


@pytest.mark.parametrize("family", sorted(CHAIN_FUNCTORS))
def test_simple_quotient_of_chains_matches_the_oracle(family):
    c = chains(CHAIN_FUNCTORS[family], 60, 2)
    _assert_simple_quotient_matches_the_oracle(c)
    _assert_simple_quotient_matches_the_oracle(Coalgebra(c.functor, c.states, c.structure, "c1_0"))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_incompatible_partitions_raise_the_witness_of_partition_compatible(family):
    spec, pool = FAMILIES[family]
    rejected = 0
    for seed in range(4):
        c = random_coalgebra(spec, 40, seed, weight_pool=pool, density=3 / 40)
        index = c.state_index()
        classes = naive_refinement(c).representative_map()
        for key in (lambda s: 0, lambda s: index[s] % 3, classes.get):
            p = Partition.from_key(c.states, key)
            witness = partition_compatible(c, p)
            if witness is None:
                apply_partition_quotient(c, p)
                continue
            rejected += 1
            with pytest.raises(IncompatiblePartition) as err:
                apply_partition_quotient(c, p)
            assert (err.value.block, err.value.x, err.value.y) == witness
    assert rejected >= 4


def test_apply_partition_quotient_still_validates_its_input():
    # its input is a Coalgebra, and no invalid one can be built
    spec = PowersetFunctor()
    with pytest.raises(ValidationError) as err:
        Coalgebra(spec, ("x", "y"), {"x": spec.struct(["ghost"]), "y": spec.struct([])})
    assert [(v.code, v.witness) for v in err.value.violations] == [("dangling-state", "ghost")]


# Pools for integer refinement.  The first has mixed denominators; the
# second has 50 distinct prime denominators, so the common scale is their
# product, a 94-digit int.  The third has 150 distinct 41-digit
# denominators, whose LCM passes REFINEMENT_SCALE_BITS, so it is refined as
# Fraction sums.
PRIMES = [p for p in range(3, 240) if all(p % d for d in range(2, p))][:50]
SCALED_POOLS = {
    "mixed": (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6), Fraction(-7, 4), 2),
    "primes": tuple(Fraction(sign, p) for p in PRIMES for sign in (1, -1)),
}
WIDE_POOL = tuple(Fraction(sign, 10**40 + k) for k in range(1, 301, 2) for sign in (1, -1))
CANCELLING = (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3))


def _scaled_instances(pool, pointed=False):
    """Random 300-state rational systems over the pool.  Every third state
    also gets five edges into five states without successors, weighted
    1/2, 1/2, -1/3, -1/3, -1/3: they sum to 0 into that class."""
    spec = WeightedFunctor("rational")
    for seed, density in ((0, 3 / 300), (1, 3 / 300), (2, 0.05)):
        c = random_coalgebra(
            spec, 300, seed, weight_pool=pool, density=density, pointed=pointed
        )
        dead = [s for s in c.states if not c.structure[s].weights]
        structure = dict(c.structure)
        for x in c.states[::3]:
            weights = dict(c.structure[x].weights)
            sinks = [s for s in dead if s not in weights][:5]
            if len(sinks) == 5:
                structure[x] = spec.struct({**weights, **dict(zip(sinks, CANCELLING))})
        yield Coalgebra(spec, c.states, structure, c.point)


def test_the_prime_pool_scales_by_the_product_of_50_primes():
    assert len(set(PRIMES)) == 50
    c = next(_scaled_instances(SCALED_POOLS["primes"]))
    # the 2 comes from the cancelling edges
    assert c.functor.refinement_scale(c.structure.values()) == 2 * math.prod(PRIMES)


def _refined_weight_types(monkeypatch) -> set:
    """The types of the weights the engine reads from now on, as they come."""
    weight_types = set()
    refine = quotient._refine

    def recording(n, rows, observe):
        rows = list(rows)
        weight_types.update(type(w) for _, edges in rows for _, _, w in edges)
        return refine(n, iter(rows), observe)

    monkeypatch.setattr(quotient, "_refine", recording)
    return weight_types


def _assert_classes_match_naive_refinement_with_a_cancelled_sum(instances):
    cancelled = 0
    for c in instances:
        classes = naive_refinement(c)
        assert behavioural_classes(c) == classes
        kappa = classes.representative_map()
        spec = c.functor
        for x in c.states:
            t = c.structure[x]
            cancelled += len({kappa[y] for y in spec.support(t)}) > len(spec.fmap(kappa, t).weights)
    assert cancelled  # some state's weights into some class sum to 0


@pytest.mark.parametrize("pool", sorted(SCALED_POOLS))
def test_integer_refinement_matches_naive_refinement(pool, monkeypatch):
    weight_types = _refined_weight_types(monkeypatch)
    _assert_classes_match_naive_refinement_with_a_cancelled_sum(
        _scaled_instances(SCALED_POOLS[pool])
    )
    assert weight_types == {int}


@pytest.mark.parametrize("pool", sorted(SCALED_POOLS))
@pytest.mark.parametrize("pointed", [False, True], ids=["unpointed", "pointed"])
def test_integer_refinement_quotient_documents_match_the_oracle(pool, pointed):
    for c in _scaled_instances(SCALED_POOLS[pool], pointed):
        _assert_simple_quotient_matches_the_oracle(c)


def test_a_common_scale_past_its_cap_refines_fraction_sums(monkeypatch):
    instances = list(_scaled_instances(WIDE_POOL)) + list(_scaled_instances(WIDE_POOL, True))
    for c in instances:
        denominators = {w.denominator for t in c.structure.values() for _, w in t.weights}
        assert math.lcm(*denominators).bit_length() > REFINEMENT_SCALE_BITS
        assert c.functor.refinement_scale(c.structure.values()) is None
    weight_types = _refined_weight_types(monkeypatch)
    _assert_classes_match_naive_refinement_with_a_cancelled_sum(instances[:3])
    assert weight_types == {Fraction}
    for c in instances:
        _assert_simple_quotient_matches_the_oracle(c)
