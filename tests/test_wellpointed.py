"""Well-pointed modifications, order commutation, isomorphism, unravelling."""

import itertools
import random

import pytest

from coalgmin import (
    Coalgebra,
    are_isomorphic,
    check_homomorphism,
    commutation_check,
    is_reachable,
    is_simple,
    is_well_pointed,
    random_coalgebra,
    reachable_part,
    serialize_coalgebra,
    serialize_morphism,
    tree_unravel,
    underlying,
    well_pointed_modification,
)
from coalgmin import core, quotient, systems, wellpointed
from coalgmin.cli import run_command
from coalgmin.core import Morphism
from coalgmin.errors import CyclicReachablePart, NotPointed, SearchBoundExceeded, SpecMismatch
from coalgmin.functors import DfaFunctor, LabelledFunctor, PowersetFunctor, WeightedFunctor
from coalgmin.oracles import enumerate_homomorphisms
from coalgmin.suites import FLAGGED_FAMILIES, seeded_instance

from conftest import chains, moved_edge, renamed_copy


def test_feeder_cycle_modification_is_the_single_loop():
    c = systems.ts_cycle_with_feeder()
    m = well_pointed_modification(c)
    assert is_well_pointed(m)
    assert are_isomorphic(m, systems.ts_single_loop()) is not None


def test_loop_cancellation_modification_is_a_lonely_point():
    c = systems.cancel_fork_loops()
    m = well_pointed_modification(c)
    assert m.states == ("a",)
    assert m.structure["a"].weights == ()
    assert is_well_pointed(m)


def test_modification_is_idempotent_up_to_iso():
    for builder in (
        systems.ts_cycle_with_feeder,
        systems.dfa_no_trailing_b,
        systems.cancel_fork_loops,
        systems.bag_double_edge,
        systems.labelled_handshake,
    ):
        m = well_pointed_modification(builder())
        again = well_pointed_modification(m)
        assert are_isomorphic(m, again) is not None


def test_modification_rejects_an_unpointed_coalgebra_before_refining(monkeypatch):
    def refine(c):
        raise AssertionError("refined a coalgebra that has no point")

    monkeypatch.setattr(wellpointed, "simple_quotient", refine)
    with pytest.raises(NotPointed):
        well_pointed_modification(underlying(systems.ts_branching()))


def test_commutation_check_validates_its_input_once(monkeypatch):
    c = systems.ts_cycle_with_feeder()
    validated = []
    validate = core.validate_coalgebra
    monkeypatch.setattr(core, "validate_coalgebra", lambda x: validated.append(x) or validate(x))
    raw = Coalgebra(c.functor, c.states, c.structure, c.point)
    assert len(validated) == 1 and validated[0] is raw
    # construction validated raw; commutation_check itself validates nothing
    assert commutation_check(raw).agree
    assert len(validated) == 1


def test_commutation_check_refines_once(monkeypatch):
    runs = []
    refine = quotient._refine
    monkeypatch.setattr(quotient, "_refine", lambda n, *rest: runs.append(n) or refine(n, *rest))
    for c in (systems.ts_cycle_with_feeder(), systems.cancel_fork_loops()):
        runs.clear()
        commutation_check(c)
        assert runs == [len(c.states)]  # c itself, never its reachable part


def test_is_well_pointed_endpoints():
    assert is_well_pointed(systems.ts_single_loop())
    assert not is_well_pointed(systems.ts_cycle_with_feeder())
    ps = PowersetFunctor()
    singleton = Coalgebra(ps, ("x",), {"x": ps.struct(())}, "x")
    assert is_well_pointed(singleton)


def test_commutation_fails_exactly_on_the_cancellation_system():
    report = commutation_check(systems.cancel_fork_loops())
    assert not report.agree
    assert report.iso is None
    assert len(report.simple_first.states) == 1
    assert len(report.reach_first.states) == 2
    assert not is_reachable(report.reach_first)
    assert is_reachable(report.simple_first)


def test_commutation_agrees_on_well_pointed_input():
    c = systems.ts_single_loop()
    report = commutation_check(c)
    assert report.agree
    assert are_isomorphic(report.simple_first, c) is not None


@pytest.mark.parametrize("family,spec,pool", FLAGGED_FAMILIES, ids=lambda v: str(v)[:12])
def test_commutation_agrees_on_flagged_functors(family, spec, pool):
    for seed in range(30):
        report = commutation_check(seeded_instance(spec, pool, seed))
        assert report.agree, f"{family} seed {seed}"


def test_modification_receives_a_unique_hom_from_the_reachable_part():
    # there need not be any morphism from the input itself, only from reach(C)
    for spec, pool in ((PowersetFunctor(), None), (WeightedFunctor("natural"), (1, 2))):
        for seed in range(10):
            c = seeded_instance(spec, pool, seed)
            part, _ = reachable_part(c)
            m = well_pointed_modification(c)
            homs = list(enumerate_homomorphisms(part, m))
            assert len(homs) == 1
            assert homs[0].is_surjective()


# -- isomorphism --------------------------------------------------------------


def test_identity_iso_is_found():
    c = systems.ts_branching()
    iso = are_isomorphic(c, c)
    assert iso is not None
    assert iso.mapping == {s: s for s in c.states}


def test_quotient_is_isomorphic_to_the_drawn_target():
    q, _, _ = simple_quotient_of_branching()
    assert are_isomorphic(q, systems.ts_branching_reduced()) is not None


def simple_quotient_of_branching():
    from coalgmin import simple_quotient

    return simple_quotient(systems.ts_branching())


def test_iso_rejects_mixed_kinds_and_functors():
    with pytest.raises(SpecMismatch):
        are_isomorphic(systems.ts_branching(), underlying(systems.ts_branching()))
    with pytest.raises(SpecMismatch):
        are_isomorphic(underlying(systems.ts_branching()), systems.weighted_flow())


def test_iso_absent_for_different_behaviour():
    assert are_isomorphic(systems.ts_two_cycle(), systems.ts_single_loop()) is None


def _naive_iso(a, b):
    """The first bijective homomorphism a -> b in lexicographic order: images
    of a's states, in carrier order, by their position in b's carrier."""
    if len(a.states) != len(b.states):
        return None
    for perm in itertools.permutations(b.states):
        mapping = dict(zip(a.states, perm))
        if a.point is not None and mapping[a.point] != b.point:
            continue
        if check_homomorphism(Morphism(a, b, mapping)):
            return mapping
    return None


def test_iso_of_reachable_dfas_matches_the_naive_bijection_search():
    spec = DfaFunctor(("a", "b"))
    for seed in range(25):
        ra, _ = reachable_part(seeded_instance(spec, None, seed))
        rb, _ = reachable_part(seeded_instance(spec, None, seed + 1))
        for other in (ra, rb, renamed_copy(ra, seed)[0]):
            iso = are_isomorphic(ra, other)
            assert (iso and iso.mapping) == _naive_iso(ra, other), seed


@pytest.mark.parametrize(
    "spec,pool",
    [
        (PowersetFunctor(), None),
        (DfaFunctor(("a", "b")), None),
        (LabelledFunctor(("a", "b")), None),
        (WeightedFunctor("rational"), (3, -3)),
        (WeightedFunctor("natural"), (1, 2)),
    ],
    ids=("powerset", "dfa", "labelled", "rational", "bag"),
)
def test_backtracking_iso_agrees_with_naive_bijection_search(spec, pool):
    # `iso` prints the least isomorphism, so the mappings must be equal
    for seed in range(36):
        n = 1 + seed % 6
        pointed = seed // 6 % 2 == 0
        a = random_coalgebra(spec, n, seed, weight_pool=pool, density=0.5, pointed=pointed)
        b = random_coalgebra(spec, n, seed + 7, weight_pool=pool, density=0.5, pointed=pointed)
        copy, _ = renamed_copy(a, seed)
        assert are_isomorphic(a, copy) is not None
        for other in (a, b, copy, moved_edge(copy, seed)):
            iso = are_isomorphic(a, other)
            assert (iso and iso.mapping) == _naive_iso(a, other), (seed, spec.kind)


def _cycles(prefix, copies, length):
    ps = PowersetFunctor()
    states = [f"{prefix}{k}_{i}" for k in range(copies) for i in range(length)]
    structure = {
        f"{prefix}{k}_{i}": ps.struct([f"{prefix}{k}_{(i + 1) % length}"])
        for k in range(copies)
        for i in range(length)
    }
    return Coalgebra(ps, states, structure)


def test_a_symmetric_search_past_its_budget_raises(monkeypatch, tmp_path, capsys):
    a, b = _cycles("a", 2, 5), _cycles("b", 2, 5)
    assert are_isomorphic(a, b) is not None
    # refining a + b reads 20 states and visits 40 edges; individualizing
    # one state and refining again passes the budget
    monkeypatch.setattr(wellpointed, "ISO_SEARCH_BUDGET", 100)
    with pytest.raises(SearchBoundExceeded):
        are_isomorphic(a, b)
    (tmp_path / "a.json").write_text(serialize_coalgebra(a))
    (tmp_path / "b.json").write_text(serialize_coalgebra(b))
    assert run_command(["iso", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "budget" in capsys.readouterr().err


def test_renamed_copy_is_isomorphic_in_exactly_two_ways():
    tree, covering = tree_unravel(systems.bag_double_edge())
    f = tree.functor
    renaming = {"0": "n0", "1": "n1", "2": "n2"}
    structure = {
        renaming[s]: f.fmap(renaming, tree.structure[s]) for s in tree.states
    }
    renamed = Coalgebra(f, ("n0", "n1", "n2"), structure, "n0")
    assert are_isomorphic(tree, renamed) is not None
    isos = [
        h
        for h in enumerate_homomorphisms(tree, renamed)
        if h.is_bijective()
    ]
    assert len(isos) == 2  # unique up to iso, not up to unique iso


# -- tree unravelling ---------------------------------------------------------


def test_double_edge_unravels_into_two_unit_siblings():
    tree, covering = tree_unravel(systems.bag_double_edge())
    assert tree.states == ("0", "1", "2")
    assert dict(tree.structure["0"].weights) == {"1": 1, "2": 1}
    assert covering.mapping == {"0": "a", "1": "b", "2": "b"}
    assert covering.is_surjective()
    assert check_homomorphism(covering)


def test_rational_weights_unravel_into_one_edge_each():
    tree, covering = tree_unravel(systems.cancel_fork())
    assert tree.states == ("0", "1", "2")
    assert dict(tree.structure["0"].weights) == {"1": 3, "2": -3}
    assert covering.mapping == {"0": "a", "1": "b1", "2": "b2"}
    assert check_homomorphism(covering)


@pytest.mark.parametrize(
    "spec, weight_pool",
    [
        (PowersetFunctor(), None),
        (LabelledFunctor(("a", "b")), None),
        (WeightedFunctor("natural"), (1, 2, 3)),
        (WeightedFunctor("rational"), (1, -1, 2)),
    ],
    ids=["powerset", "labelled", "bag", "rational"],
)
def test_the_counted_tree_size_is_the_size_of_the_built_tree(spec, weight_pool):
    # random DAGs: every state's successors come later in carrier order
    pool = spec.random_pool(weight_pool)
    sizes = set()
    cycles = 0
    for seed in range(20):
        rng = random.Random(seed)
        states = [f"s{i}" for i in range(7)]
        structure = {
            s: spec.random_structure(states[i + 1:], rng, pool, 0.4) for i, s in enumerate(states)
        }
        tree, covering = tree_unravel(Coalgebra(spec, states, structure, "s0"))
        part = covering.cod
        assert wellpointed._tree_size(part) == len(tree.states)
        sizes.add(len(tree.states))
        # random systems with back edges: the witness is a closed walk of the part
        structure = {s: spec.random_structure(states, rng, pool, 0.4) for s in states}
        c = Coalgebra(spec, states, structure, "s0")
        try:
            tree_unravel(c)
        except CyclicReachablePart as err:
            cycles += 1
            part, _ = reachable_part(c)
            assert err.cycle[0] == err.cycle[-1]
            for x, y in zip(err.cycle, err.cycle[1:]):
                assert y in spec.support(part.structure[x])
    assert len(sizes) > 5
    assert cycles > 5


def path_collision() -> Coalgebra:
    """r reaches b along the edge path r/a/b twice, were tree states named
    by their paths: once through the state named a/b, once through a and
    then b."""
    ps = PowersetFunctor()
    structure = {
        "r": ps.struct(["a/b", "a"]),
        "a/b": ps.struct([]),
        "a": ps.struct(["b"]),
        "b": ps.struct([]),
    }
    return Coalgebra(ps, ("r", "a/b", "a", "b"), structure, "r")


def test_a_state_id_containing_a_slash_unravels(tmp_path):
    tree, covering = tree_unravel(path_collision())
    assert tree.states == ("0", "1", "2", "3")
    assert covering.mapping == {"0": "r", "1": "a/b", "2": "a", "3": "b"}
    document = tmp_path / "collision.json"
    document.write_text(serialize_coalgebra(path_collision()))
    assert run_command(["unravel", str(document), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "tree.json").read_text() == serialize_coalgebra(tree)
    assert (tmp_path / "covering.json").read_text() == serialize_morphism(covering)


def test_unravelling_a_tree_is_an_isomorphism():
    tree, _ = tree_unravel(systems.bag_double_edge())
    again, covering = tree_unravel(tree)
    assert covering.is_bijective()
    assert are_isomorphic(tree, again) is not None


def test_self_loop_is_rejected_with_its_cycle():
    with pytest.raises(CyclicReachablePart) as err:
        tree_unravel(systems.bag_self_loop())
    assert err.value.cycle == ("a", "a")


def test_a_cycle_is_reported_before_a_tree_past_the_budget():
    # the chain alone unravels to 2**40 states and is searched first
    bag = WeightedFunctor("natural")
    chain = [f"c{i}" for i in range(40)]
    structure = {x: bag.struct({y: 2}) for x, y in zip(chain, chain[1:])}
    structure.update(
        c39=bag.struct({}), loop=bag.struct({"loop": 1}), p=bag.struct({"c0": 1, "loop": 1})
    )
    with pytest.raises(CyclicReachablePart) as err:
        tree_unravel(Coalgebra(bag, ["p", *chain, "loop"], structure, "p"))
    assert err.value.cycle == ("loop", "loop")


def test_a_deep_chain_unravels_without_recursion():
    c = chains(PowersetFunctor(), 1500)
    tree, _ = tree_unravel(Coalgebra(c.functor, c.states, c.structure, "c0_0"))
    assert len(tree.states) == 1500


def test_a_deep_cycle_is_named_by_its_witness():
    ps = PowersetFunctor()
    c = chains(ps, 3000)
    structure = dict(c.structure, c0_2999=ps.struct(["c0_1500"]))
    with pytest.raises(CyclicReachablePart) as err:
        tree_unravel(Coalgebra(ps, c.states, structure, "c0_0"))
    assert err.value.cycle == tuple(f"c0_{i}" for i in range(1500, 3000)) + ("c0_1500",)


def test_dfa_unravelling_is_always_cyclic():
    # total transition maps force a lasso on any finite carrier
    with pytest.raises(CyclicReachablePart):
        tree_unravel(systems.dfa_no_trailing_b())


def test_unravelled_tree_has_unique_parents():
    c = systems.labelled_handshake()
    tree, covering = tree_unravel(c)
    assert check_homomorphism(covering)
    incoming = {s: 0 for s in tree.states}
    spec = tree.functor
    for s in tree.states:
        for t in spec.support(tree.structure[s]):
            incoming[t] += 1
    assert incoming[tree.point] == 0
    assert all(n == 1 for s, n in incoming.items() if s != tree.point)
    assert len(set(tree.states)) == len(tree.states)


def test_unravelling_only_touches_the_reachable_part():
    c = systems.ts_cycle_with_feeder()
    # reachable part is the 2-cycle, hence cyclic and rejected
    with pytest.raises(CyclicReachablePart):
        tree_unravel(c)
