"""The oracle lab itself: hom enumeration against naive search, lemma checks."""

import hashlib
import itertools

import pytest

from coalgmin import (
    Coalgebra,
    Morphism,
    Partition,
    apply_partition_quotient,
    behavioural_classes,
    check_homomorphism,
    emit_dot,
    check_greatest_quotient,
    check_least_subobject,
    check_minimal_iff_incoming_epi,
    check_minimization_functorial,
    check_quotient_closure,
    check_simple_subterminal,
    enumerate_homomorphisms,
    identity_morphism,
    random_coalgebra,
    reachable_part,
    simple_quotient,
    underlying,
)
from coalgmin import systems
from coalgmin.errors import SearchBoundExceeded, SpecMismatch, WeightedWithoutPool
from coalgmin.functors import (
    DfaFunctor,
    LabelledFunctor,
    PowersetFunctor,
    WeightedFunctor,
)
from coalgmin import oracles
from coalgmin.oracles import kernel_pair_coalgebra, stable_digest
from coalgmin.suites import FUNCTOR_FAMILIES, seeded_instance, suite_universality


def naive_homs(a, b, pointed=False):
    """Ground truth: every total map, filtered by the law, no pruning."""
    base_a, base_b = underlying(a), underlying(b)
    out = []
    for targets in itertools.product(base_b.states, repeat=len(base_a.states)):
        mapping = dict(zip(base_a.states, targets))
        if pointed and mapping[a.point] != b.point:
            continue
        h = Morphism(a if pointed else base_a, b if pointed else base_b, mapping)
        if check_homomorphism(h):
            out.append(mapping)
    return out


def test_single_loop_has_only_the_identity_endomorphism():
    c = systems.ts_single_loop()
    homs = enumerate_homomorphisms(underlying(c), underlying(c))
    assert [h.mapping for h in homs] == [{"q0": "q0"}]


def test_pointed_dfa_search_finds_exactly_the_book_morphism():
    dom, cod = systems.dfa_no_trailing_b(), systems.dfa_merge_target()
    homs = enumerate_homomorphisms(dom, cod)
    assert [h.mapping for h in homs] == [systems.dfa_merge_map()]


def test_branching_system_has_exactly_one_hom_onto_its_quotient():
    c = underlying(systems.ts_branching())
    q = underlying(simple_quotient(c)[0])
    homs = list(enumerate_homomorphisms(c, q))
    assert len(homs) == 1  # frozen: brute force finds only the projection
    assert homs[0].mapping == {"x": "x", "y": "x", "z": "z"}


def test_weighted_flow_admits_exactly_the_drawn_morphism():
    homs = enumerate_homomorphisms(systems.weighted_flow(), systems.weighted_flow_target())
    assert [h.mapping for h in homs] == [systems.weighted_flow_map()]


@pytest.mark.parametrize(
    "spec,pool",
    [
        (DfaFunctor(("a", "b")), None),
        (PowersetFunctor(), None),
        (LabelledFunctor(("a", "b")), None),
        (WeightedFunctor("natural"), (1, 2)),
        (WeightedFunctor("rational"), (3, -3)),
    ],
    ids=("dfa", "powerset", "labelled", "bag", "rational"),
)
def test_enumeration_matches_naive_search(spec, pool):
    for seed in range(8):
        a = random_coalgebra(spec, 1 + seed % 3, seed, weight_pool=pool, density=0.5, pointed=True)
        b = random_coalgebra(spec, 1 + (seed + 1) % 3, seed + 100, weight_pool=pool, density=0.5, pointed=True)
        for pointed in (False, True):
            ends = (a, b) if pointed else (underlying(a), underlying(b))
            fast = [h.mapping for h in enumerate_homomorphisms(*ends)]
            assert fast == naive_homs(a, b, pointed=pointed)


def test_search_budget_is_enforced(monkeypatch):
    c = random_coalgebra(PowersetFunctor(), 6, 1, density=0.0)  # all maps are homs
    monkeypatch.setattr(oracles, "HOM_SEARCH_BUDGET", 10)
    with pytest.raises(SearchBoundExceeded):
        list(enumerate_homomorphisms(c, c))
    big = random_coalgebra(PowersetFunctor(), 13, 1, density=0.2)
    with pytest.raises(SearchBoundExceeded):
        enumerate_homomorphisms(big, big)


def test_enumeration_order_is_deterministic():
    c = random_coalgebra(PowersetFunctor(), 4, 9, density=0.0)
    first = [h.mapping for h in enumerate_homomorphisms(c, c)]
    second = [h.mapping for h in enumerate_homomorphisms(c, c)]
    assert first == second
    assert len(first) == 4 ** 4  # empty structures put no constraint on maps


def test_search_work_and_maps_are_pinned(monkeypatch):
    # fmap calls and maps of the pointed and unpointed endomorphism searches
    # over the suite instances; a change to the pruning moves the counts
    expected = {
        "dfa": (17297, "81722a8cc69e4e0337cd87f2256ef3e2b1a4c5ca0a7ec3ff7040f2dcb041f498"),
        "powerset": (144069, "e21484c3e78ec238ffef131ff7f43db64c7632016b69125c78d86debe82c645a"),
        "labelled": (189398, "164d0cfd07ffad7eba0b78c137e5055c4477eb926c4ccc02318a24280865d538"),
        "bag": (131772, "e80faffd1473d537c22901599b227e7363754161b2a879a4c3292996c52f886e"),
        "rational": (77815, "c7bdd20af3dcbdc976d665607f68f41f75a6540e6aabfc6930f63547725dfcce"),
    }
    for family, spec, pool in FUNCTOR_FAMILIES:
        calls = 0
        fmap = type(spec).fmap

        def counting(self, mapping, t):
            nonlocal calls
            calls += 1
            return fmap(self, mapping, t)

        monkeypatch.setattr(type(spec), "fmap", counting)
        digest = hashlib.sha256()
        for seed in range(30):
            c = seeded_instance(spec, pool, seed)
            for ends in ((c, c), (underlying(c), underlying(c))):
                for h in enumerate_homomorphisms(*ends):
                    digest.update(repr(sorted(h.mapping.items())).encode())
                digest.update(b"|")
        monkeypatch.undo()
        assert (calls, digest.hexdigest()) == expected[family], family


# -- kernel pairs --------------------------------------------------------------


def test_kernel_pair_projections_are_distinct_homs_for_bag_systems():
    spec = WeightedFunctor("natural")
    c = systems.bag_double_edge()
    merged = random_coalgebra(spec, 5, 11, weight_pool=(1, 2), density=0.6)
    for system in (underlying(c), merged):
        result = kernel_pair_coalgebra(system)
        assert result is not None
        kernel, pr1, pr2 = result
        assert check_homomorphism(pr1) and check_homomorphism(pr2)


def test_kernel_pair_is_refused_for_rational_weights():
    assert kernel_pair_coalgebra(underlying(systems.cancel_fork())) is None


# -- lemma checks ---------------------------------------------------------------


def test_minimal_iff_incoming_epi_on_the_two_cycle():
    r = systems.ts_two_cycle()
    c = systems.ts_cycle_with_feeder()
    report = check_minimal_iff_incoming_epi(r, [r, c])
    assert report.passed


def test_minimal_iff_incoming_epi_flags_the_non_reachable_input():
    c = systems.ts_cycle_with_feeder()
    report = check_minimal_iff_incoming_epi(c, [c])
    assert report.passed
    assert any("not surjective" in w for w in report.witnesses)


def test_minimal_iff_incoming_epi_trivial_singleton():
    from coalgmin import Coalgebra

    ps = PowersetFunctor()
    c = Coalgebra(ps, ("x",), {"x": ps.struct(())}, "x")
    assert check_minimal_iff_incoming_epi(c, [c]).passed


def test_subterminal_on_the_branching_quotient():
    c = underlying(systems.ts_branching())
    q = underlying(simple_quotient(c)[0])
    report = check_simple_subterminal(q, [q, c])
    assert report.passed  # at most one hom from each pool member


def test_subterminal_finds_two_endomorphisms_of_the_branching_system():
    c = underlying(systems.ts_branching())
    report = check_simple_subterminal(c, [c])
    assert report.passed
    assert any("endomorphisms" in w for w in report.witnesses)


def test_subterminal_counts_unpointed_endomorphisms_of_a_pointed_system():
    # only the identity keeps the point, which would leave the kernel pair as witness
    c = systems.ts_two_cycle()
    report = check_simple_subterminal(c, [c])
    assert report.passed
    assert report.witnesses == ("2 endomorphisms of a non-simple coalgebra",)


def test_enumeration_refuses_a_pointed_and_an_unpointed_end_at_the_call():
    c = systems.ts_two_cycle()
    for a, b in ((c, underlying(c)), (underlying(c), c)):
        with pytest.raises(SpecMismatch):
            enumerate_homomorphisms(a, b)


def test_subterminal_on_the_empty_coalgebra_is_vacuous():
    from coalgmin import Coalgebra

    empty = Coalgebra(PowersetFunctor(), (), {})
    assert check_simple_subterminal(empty, []).passed


def test_partition_oracles_on_the_empty_carrier_match_behavioural_classes():
    empty = Coalgebra(PowersetFunctor(), (), {})
    assert behavioural_classes(empty) == Partition(())
    assert oracles.enumerate_compatible_partitions(empty) == [Partition(())]
    assert oracles.naive_refinement(empty) == Partition(())


def test_subterminal_converse_is_noted_not_failed_for_rationals():
    c = underlying(systems.cancel_fork_loops())
    report = check_simple_subterminal(c, [])
    assert report.passed
    assert any("not applicable" in w for w in report.witnesses)


def test_least_subobject_on_the_feeder_cycle():
    assert check_least_subobject(systems.ts_cycle_with_feeder()).passed


def test_least_subobject_on_reachable_input_sees_only_the_identity():
    report = check_least_subobject(systems.ts_two_cycle())
    assert report.passed
    assert report.instances == 1


def test_greatest_quotient_on_the_branching_system():
    report = check_greatest_quotient(underlying(systems.ts_branching()))
    assert report.passed
    assert report.instances == 2  # discrete + the merging partition


def test_greatest_quotient_on_a_simple_input():
    q = underlying(simple_quotient(systems.ts_branching())[0])
    report = check_greatest_quotient(q)
    assert report.passed


def test_greatest_quotient_covers_the_cancellation_merges():
    report = check_greatest_quotient(underlying(systems.cancel_fork()))
    assert report.passed
    assert report.instances >= 2


# Each sabotage breaks one collaborator of the universality checks; the
# suite must then report the failure branch it was written for.


def _whole_carrier_as_reachable_part(c):
    return c, identity_morphism(c)


def _discrete_simple_quotient(c):
    partition = Partition.discrete(c.states)
    return (*apply_partition_quotient(c, partition), partition)


def _each_hom_twice(a, b):
    for h in _real_enumerate_homomorphisms(a, b):
        yield h
        yield h


def _rotated(c):
    """c with each state given the structure of the next in carrier order."""
    s = c.states
    structure = {x: c.structure[s[(i + 1) % len(s)]] for i, x in enumerate(s)}
    return Coalgebra(c.functor, s, structure, c.point)


def _rotated_reachable_part(c):
    part, inclusion = _real_reachable_part(c)
    return _rotated(part), inclusion


def _rotated_simple_quotient(c):
    quotient, projection, partition = _real_simple_quotient(c)
    return _rotated(quotient), projection, partition


_real_enumerate_homomorphisms = oracles.enumerate_homomorphisms
_real_reachable_part = oracles.reachable_part
_real_simple_quotient = oracles.simple_quotient

_SABOTAGED_UNIVERSALITY = {
    ("reachable_part", _whole_carrier_as_reachable_part): ([18, 21, 10, 30, 29], (
        "1946fcb07954:reachable part escapes a pointed subcoalgebra",
        "0e829ac0c463:reachable part escapes a pointed subcoalgebra",
        "e9fe0ad25d99:reachable part escapes a pointed subcoalgebra",
        "ef7e0edd8342:reachable part escapes a pointed subcoalgebra",
        "d4776eb116a3:reachable part escapes a pointed subcoalgebra",
    )),
    ("simple_quotient", _discrete_simple_quotient): ([18, 313, 140, 15, 23], (
        "e59c62dc28cc:no mediating map: conflict at 's1'",
        "0b7d370faecb:no mediating map: conflict at 's1'",
        "3ee6f4a6c464:no mediating map: conflict at 's1'",
        "d1f10c4d6103:no mediating map: conflict at 's1'",
        "a1965081ad51:no mediating map: conflict at 's3'",
    )),
    ("enumerate_homomorphisms", _each_hom_twice): ([90, 380, 204, 100, 107], (
        "e59c62dc28cc:2 mediating homomorphisms",
        "937b260b68bf:2 mediating homomorphisms",
        "62022ee08c87:2 mediating homomorphisms",
        "d8993852b1c5:2 mediating homomorphisms",
        "cdbca6295ecf:2 mediating homomorphisms",
    )),
    ("reachable_part", _rotated_reachable_part): ([40, 35, 31, 25, 26], (
        "025957572633:forced mediating map is not a hom",
        "14299ea823b3:forced mediating map is not a hom",
        "9fef41b43774:forced mediating map is not a hom",
        "2f526c1db356:forced mediating map is not a hom",
        "ddc0454a1006:forced mediating map is not a hom",
    )),
    ("simple_quotient", _rotated_simple_quotient): ([34, 14, 15, 42, 54], (
        "025957572633:forced mediating map is not a hom",
        "6beaeeadb80b:forced mediating map is not a hom",
        "7b2eea662c96:forced mediating map is not a hom",
        "2f526c1db356:forced mediating map is not a hom",
        "d70957826ca5:forced mediating map is not a hom",
    )),
}


@pytest.mark.parametrize(
    "name,sabotage",
    list(_SABOTAGED_UNIVERSALITY),
    ids=[f"{name}-{fn.__name__.strip('_')}" for name, fn in _SABOTAGED_UNIVERSALITY],
)
def test_universality_reports_each_failure_branch(monkeypatch, name, sabotage):
    monkeypatch.setattr(oracles, name, sabotage)
    reports = suite_universality(range(40))
    counts, first = _SABOTAGED_UNIVERSALITY[name, sabotage]
    assert [r.line() for r in reports] == [
        f"FAIL universality[{family}] instances=40 first-failure={line}"
        for (family, _, _), line in zip(FUNCTOR_FAMILIES, first)
    ]
    assert [len(r.failures) for r in reports] == counts


def test_functoriality_uses_the_inclusion_and_identity_pairs():
    r, inclusion = reachable_part(systems.ts_cycle_with_feeder())
    report = check_minimization_functorial([inclusion])
    assert report.passed
    ident = Morphism(r, r, {s: s for s in r.states})
    assert check_minimization_functorial([ident]).passed


def test_quotient_closure_finds_the_cancellation_violation():
    report = check_quotient_closure(systems.cancel_fork())
    assert report.passed  # rational weights: violations are recorded, not failed
    assert any("b1,b2" in w for w in report.witnesses)


def test_quotient_closure_passes_on_automata():
    spec = DfaFunctor(("a", "b"))
    for seed in range(15):
        c = random_coalgebra(spec, 1 + seed % 5, seed, density=0.5, pointed=True)
        part, _ = reachable_part(c)
        assert check_quotient_closure(part).passed


# -- generator -----------------------------------------------------------------


def test_random_coalgebra_is_deterministic():
    a = random_coalgebra(PowersetFunctor(), 5, 42, density=0.5, pointed=True)
    b = random_coalgebra(PowersetFunctor(), 5, 42, density=0.5, pointed=True)
    assert a == b
    assert stable_digest(a) == stable_digest(b)


def test_random_coalgebra_and_dot_output_are_pinned():
    # Any change to the generator's draw order or to the document or DOT
    # encoding of a functor moves these digests; the suite instances and the
    # determinism fingerprint depend on both.
    documents, dots = hashlib.sha256(), hashlib.sha256()
    for _, spec, pool in FUNCTOR_FAMILIES:
        for n in (0, 1, 7, 30):
            for seed in (0, 1, 2):
                for density in (0.1, 0.5):
                    c = random_coalgebra(
                        spec, n, seed, weight_pool=pool, density=density, pointed=n > 0
                    )
                    documents.update(stable_digest(c).encode())
                    dots.update(emit_dot(c).encode())
    assert documents.hexdigest() == (
        "f4fa57f53eef2b00cca0d0bc31b364daf33119c0da712c2d5c0a71ecb837ed87"
    )
    assert dots.hexdigest() == (
        "0d203a5ec4818f658bb16f1ac66d979ddaf5b70e73516fcf972e553f642ab15f"
    )


def test_random_coalgebra_density_zero_is_empty_structures():
    c = random_coalgebra(PowersetFunctor(), 4, 3, density=0.0)
    assert all(c.structure[s] == frozenset() for s in c.states)


def test_random_coalgebra_weighted_needs_a_pool():
    with pytest.raises(WeightedWithoutPool):
        random_coalgebra(WeightedFunctor("rational"), 3, 0)


@pytest.mark.parametrize("seed", range(30))
def test_generated_instances_validate(seed):
    from coalgmin import validate_coalgebra

    c = random_coalgebra(PowersetFunctor(), 6, seed, density=0.5, pointed=True)
    assert validate_coalgebra(c) == []
