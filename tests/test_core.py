"""Coalgebra validation, homomorphism law, fill-in, factorization, quotients."""

import copy
import itertools
import pickle
import re

import pytest

from coalgmin import (
    Coalgebra,
    Morphism,
    Partition,
    PowersetFunctor,
    WeightedFunctor,
    apply_partition_quotient,
    are_isomorphic,
    check_homomorphism,
    compose_morphisms,
    diagonal_fill_in,
    factorize,
    hom_failures,
    identity_morphism,
    kernel_partition,
    parse_coalgebra,
    random_coalgebra,
    reachable_part,
    serialize_coalgebra,
    simple_quotient,
    underlying,
    validate_coalgebra,
)
from coalgmin import systems
from coalgmin.core import Factorization, Violation
from coalgmin.errors import (
    DomainMismatch,
    IncompatiblePartition,
    InvalidMorphism,
    NotAHomomorphism,
    NotAPartition,
    NotInjective,
    NotSurjective,
    SpecMismatch,
    SquareDoesNotCommute,
    ValidationError,
)
from coalgmin.functors import DfaFunctor, DfaStruct
from coalgmin.oracles import PropertyReport
from coalgmin.wellpointed import CommutationReport
from fractions import Fraction

PS = PowersetFunctor()
DFA = DfaFunctor(("a",))
RAT = WeightedFunctor("rational")


# -- validation ---------------------------------------------------------------


def test_named_corpus_systems_validate():
    for builder in systems.ALL_SYSTEMS.values():
        assert validate_coalgebra(builder()) == []


def test_dangling_state_is_reported_with_witness():
    with pytest.raises(ValidationError) as err:
        Coalgebra(PS, ("x",), {"x": PS.struct({"z"})})
    violations = err.value.violations
    assert any(v.code == "dangling-state" and v.witness == "z" for v in violations)


def test_missing_structure_is_reported():
    with pytest.raises(ValidationError) as err:
        Coalgebra(PS, ("x", "y"), {"x": PS.struct(())})
    assert any(v.code == "missing-structure" for v in err.value.violations)


def test_stored_zero_weight_is_reported():
    raw = (("r", Fraction(0, 1)),)
    with pytest.raises(ValidationError) as err:
        Coalgebra(RAT, ("r",), {"r": raw})
    assert any(v.code == "zero-weight-entry" for v in err.value.violations)


def test_point_outside_carrier_is_reported():
    with pytest.raises(ValidationError) as err:
        Coalgebra(PS, ("x",), {"x": PS.struct(())}, "nope")
    assert any(v.code == "point-not-in-carrier" for v in err.value.violations)


def test_structure_is_a_read_only_private_copy():
    structure = {"x": PS.struct(())}
    c = Coalgebra(PS, ("x",), structure)
    with pytest.raises(TypeError):
        c.structure["x"] = PS.struct(["x"])
    structure["x"] = PS.struct(["x"])
    structure["y"] = PS.struct(())
    assert dict(c.structure) == {"x": PS.struct(())}


def test_coalgebras_pickle_and_deep_copy():
    c = systems.dfa_no_trailing_b()
    assert pickle.loads(pickle.dumps(c)) == c
    assert copy.deepcopy(c) == c


def test_a_raw_invalid_coalgebra_is_rejected_every_time():
    # no invalid value can be built, so no operation can receive one
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            Coalgebra(PS, ("x", "y"), {"x": PS.struct(["ghost"]), "y": PS.struct([])}, "x")
        assert [(v.code, v.witness) for v in err.value.violations] == [("dangling-state", "ghost")]


def test_a_recorded_validation_changes_no_value():
    text = serialize_coalgebra(systems.dfa_no_trailing_b())
    checked = parse_coalgebra(text)
    raw = Coalgebra(checked.functor, checked.states, checked.structure, checked.point)
    assert checked == raw
    assert pickle.loads(pickle.dumps(checked)) == raw
    assert copy.deepcopy(checked) == raw


@pytest.mark.parametrize(
    "build, codes",
    [
        (lambda: Coalgebra(PS, (["x"],), {}), ["non-string-id"]),
        (lambda: Coalgebra(PS, ("x",), {"x": PS.struct(())}, ["x"]), ["non-string-id"]),
        (
            lambda: Coalgebra(DFA, ("x",), {"x": DfaStruct(True, (("a", ["x"]),))}),
            ["malformed-structure"],
        ),
        (lambda: Coalgebra(PS, ("x",), 5), ["malformed-structure", "missing-structure"]),
        (lambda: Coalgebra(PS, (1,), {1: PS.struct(())}), ["non-string-id", "dangling-state"]),
    ],
    ids=["unhashable-state", "unhashable-point", "unhashable-dfa-target", "non-mapping",
         "int-state"],
)
def test_bad_python_input_is_a_validation_error(build, codes):
    with pytest.raises(ValidationError) as err:
        build()
    assert [v.code for v in err.value.violations] == codes


def test_empty_coalgebra_is_legal():
    assert validate_coalgebra(Coalgebra(PS, (), {})) == []


# -- homomorphism law ---------------------------------------------------------


def dfa_pair():
    dom = underlying(systems.dfa_no_trailing_b())
    cod = underlying(systems.dfa_merge_target())
    return dom, cod


def test_book_dfa_map_is_a_homomorphism():
    dom, cod = dfa_pair()
    assert check_homomorphism(Morphism(dom, cod, systems.dfa_merge_map()))


def test_identity_is_a_homomorphism():
    for builder in systems.ALL_SYSTEMS.values():
        assert check_homomorphism(identity_morphism(builder()))


def test_weighted_flow_map_is_a_homomorphism():
    h = Morphism(
        systems.weighted_flow(),
        systems.weighted_flow_target(),
        systems.weighted_flow_map(),
    )
    assert check_homomorphism(h)


def test_perturbed_map_fails_with_counterexamples():
    dom, cod = dfa_pair()
    failures = hom_failures(Morphism(dom, cod, systems.dfa_merge_map_perturbed()))
    assert failures  # redirecting r corrupts every state's b-successor image
    assert "r" in failures
    assert failures == tuple(s for s in dom.states if s in failures)  # carrier order


def test_a_morphism_reports_every_state_where_it_is_not_a_map():
    dom, cod = dfa_pair()
    mapping = dict(systems.dfa_merge_map(), s="ghost")
    del mapping["p"]
    with pytest.raises(ValidationError) as err:
        Morphism(dom, cod, mapping)
    assert [(v.code, v.witness) for v in err.value.violations] == [
        ("partial-map", "p"),
        ("dangling-state", "s"),
    ]


def test_a_morphism_reports_every_key_outside_its_domain():
    c = systems.ts_two_cycle()
    with pytest.raises(ValidationError) as err:
        Morphism(c, c, {"q0": "q0", "q1": "q1", "ghost": "q0"})
    assert [(v.code, v.message) for v in err.value.violations] == [
        ("dangling-state", "map given for unknown state 'ghost'"),
    ]
    # as many keys as states, but one of them is not a state
    with pytest.raises(ValidationError) as err:
        Morphism(c, c, {"q0": "q0", 7: "q1"})
    assert [(v.code, v.witness) for v in err.value.violations] == [
        ("partial-map", "q1"),
        ("dangling-state", 7),
    ]


@pytest.mark.parametrize("mapping, expected", [
    (5, [("malformed-map", None)]),
    ({"q0": ["x"], "q1": "q1"}, [("dangling-state", "q0")]),
], ids=["not-a-mapping", "unhashable-image"])
def test_a_morphism_of_malformed_python_values_is_a_validation_error(mapping, expected):
    c = systems.ts_two_cycle()
    with pytest.raises(ValidationError) as err:
        Morphism(c, c, mapping)
    assert [(v.code, v.witness) for v in err.value.violations] == expected


def test_a_morphism_map_is_a_read_only_private_copy():
    c = systems.ts_two_cycle()
    mapping = {"q0": "q0", "q1": "q1"}
    h = Morphism(c, c, mapping)
    del mapping["q1"]
    assert check_homomorphism(h)
    assert dict(h.mapping) == {"q0": "q0", "q1": "q1"}
    with pytest.raises(TypeError):
        h.mapping["q1"] = "q0"


def test_morphisms_pickle_and_deep_copy():
    h = identity_morphism(systems.ts_two_cycle())
    assert pickle.loads(pickle.dumps(h)) == h
    assert copy.deepcopy(h) == h


def test_pointed_morphism_must_preserve_the_point():
    a = systems.ts_two_cycle()
    h = Morphism(a, a, {"q0": "q1", "q1": "q0"})
    assert hom_failures(h)[0] == "q0"


def test_composition_of_homomorphisms_is_a_homomorphism():
    dom, cod = dfa_pair()
    h = Morphism(dom, cod, systems.dfa_merge_map())
    composed = compose_morphisms(identity_morphism(cod), h)
    assert check_homomorphism(composed)
    assert composed.mapping == h.mapping


def test_compose_rejects_mismatched_endpoints():
    dom, cod = dfa_pair()
    h = Morphism(dom, cod, systems.dfa_merge_map())
    with pytest.raises(DomainMismatch):
        compose_morphisms(h, h)


# -- diagonal fill-in ---------------------------------------------------------


def test_fill_in_degenerate_identity_sides():
    e = {"a1": "a1", "a2": "a2"}
    f = {"a1": "c1", "a2": "c1"}
    m = {"c1": "d1", "c2": "d2"}
    g = {"a1": "d1", "a2": "d1"}
    assert diagonal_fill_in(e, m, f, g) == f
    # m identity: diagonal is g
    e2 = {"a1": "b1", "a2": "b1"}
    m2 = {"d1": "d1", "d2": "d2"}
    f2 = {"a1": "d1", "a2": "d1"}
    g2 = {"b1": "d1"}
    assert diagonal_fill_in(e2, m2, f2, g2) == g2


def test_fill_in_rejects_bad_squares():
    with pytest.raises(NotSurjective):
        diagonal_fill_in({"a": "b1"}, {"c": "d"}, {"a": "c"}, {"b1": "d", "b2": "d"})
    with pytest.raises(NotInjective):
        diagonal_fill_in(
            {"a": "b"},
            {"c1": "d", "c2": "d"},
            {"a": "c1"},
            {"b": "d"},
        )
    with pytest.raises(SquareDoesNotCommute):
        diagonal_fill_in(
            {"a": "b"},
            {"c1": "d1", "c2": "d2"},
            {"a": "c1"},
            {"b": "d2"},
        )


@pytest.mark.parametrize("seed", range(20))
def test_fill_in_unique_on_random_commuting_squares(seed):
    # build a commuting square from random f and e, then verify the diagonal
    # is the only map among all |C|^|B| candidates closing both triangles
    import random

    rng = random.Random(f"fill-in-{seed}")
    a_states = tuple(f"a{i}" for i in range(rng.randint(1, 4)))
    b_pool = tuple(f"b{i}" for i in range(rng.randint(1, 4)))
    c_states = tuple(f"c{i}" for i in range(rng.randint(1, 4)))
    e = {a: rng.choice(b_pool) for a in a_states}
    b_states = tuple(sorted(set(e.values())))
    f = {}
    f_by_b = {b: rng.choice(c_states) for b in b_states}
    for a in a_states:
        f[a] = f_by_b[e[a]]  # constant on fibers, as any commuting square forces
    m = {c: f"d_{c}" for c in c_states}
    g = {b: m[f_by_b[b]] for b in b_states}
    d = diagonal_fill_in(e, m, f, g)
    candidates = [
        dict(zip(b_states, values))
        for values in itertools.product(c_states, repeat=len(b_states))
    ]
    closing = [
        cand
        for cand in candidates
        if all(m[cand[b]] == g[b] for b in b_states)
        and all(cand[e[a]] == f[a] for a in a_states)
    ]
    assert closing == [d]


def test_fill_in_unique_among_all_maps_exhaustively():
    # oracle: over every map B -> C, exactly one closes both triangles
    a_states = ("a1", "a2", "a3")
    b_states = ("b1", "b2")
    c_states = ("c1", "c2", "c3")
    d_states = ("d1", "d2", "d3")
    e = {"a1": "b1", "a2": "b1", "a3": "b2"}
    f = {"a1": "c2", "a2": "c2", "a3": "c3"}
    m = {"c1": "d1", "c2": "d2", "c3": "d3"}
    g = {b: m[f[next(a for a in a_states if e[a] == b)]] for b in b_states}
    d = diagonal_fill_in(e, m, f, g)
    candidates = [
        dict(zip(b_states, values))
        for values in itertools.product(c_states, repeat=len(b_states))
    ]
    closing = [
        cand
        for cand in candidates
        if all(m[cand[b]] == g[b] for b in b_states)
        and all(cand[e[a]] == f[a] for a in a_states)
    ]
    assert closing == [d]


# -- factorization ------------------------------------------------------------


def test_factorization_of_the_dfa_morphism_matches_the_drawn_image():
    dom, cod = dfa_pair()
    h = Morphism(dom, cod, systems.dfa_merge_map())
    fact = factorize(h)
    image = fact.image
    assert image.states == ("p_bar", "s", "r")
    f = image.functor
    assert image.structure["p_bar"] == f.struct(True, {"a": "p_bar", "b": "r"})
    assert image.structure["s"] == f.struct(True, {"a": "p_bar", "b": "r"})
    assert image.structure["r"] == f.struct(False, {"a": "p_bar", "b": "r"})
    assert compose_morphisms(fact.m, fact.e).mapping == h.mapping
    assert fact.e.is_surjective() and not fact.e.is_injective()
    assert fact.m.is_injective() and not fact.m.is_surjective()
    assert check_homomorphism(fact.e) and check_homomorphism(fact.m)


def test_factorize_requires_a_homomorphism():
    dom, cod = dfa_pair()
    with pytest.raises(NotAHomomorphism):
        factorize(Morphism(dom, cod, systems.dfa_merge_map_perturbed()))


def test_injective_input_factors_with_bijective_e():
    c = systems.ts_two_cycle()
    fact = factorize(identity_morphism(c))
    assert fact.e.is_bijective()
    assert fact.m.is_bijective()


def test_surjective_input_factors_with_bijective_m():
    c = systems.ts_branching()
    _, projection, _ = simple_quotient(c)
    fact = factorize(projection)
    assert fact.m.is_bijective()
    assert fact.e.is_surjective()


# -- kernel partitions and quotients -------------------------------------------


def test_kernel_partition_of_the_dfa_morphism():
    dom, cod = dfa_pair()
    h = Morphism(dom, cod, systems.dfa_merge_map())
    assert kernel_partition(h).blocks == (("p", "q"), ("r",), ("s",))


def test_kernel_partition_identity_and_constant():
    c = systems.ts_branching()
    assert kernel_partition(identity_morphism(c)).is_discrete
    target = systems.ts_single_loop()
    const = Morphism(underlying(c), underlying(target), {s: "q0" for s in c.states})
    assert kernel_partition(const).blocks == (("x", "y", "z"),)


def test_quotient_by_kernel_is_isomorphic_to_the_image():
    dom, cod = dfa_pair()
    h = Morphism(dom, cod, systems.dfa_merge_map())
    q, kappa = apply_partition_quotient(dom, kernel_partition(h))
    assert check_homomorphism(kappa)
    assert are_isomorphic(q, factorize(h).image) is not None


@pytest.mark.parametrize("seed", range(15))
def test_kernel_quotient_matches_the_image_on_seeded_morphisms(seed):
    # validated homomorphisms out of seeded systems: the simple-quotient
    # projection and the reachable-part inclusion
    from coalgmin import random_coalgebra, reachable_part, simple_quotient

    c = random_coalgebra(PS, 1 + seed % 6, seed, density=0.5, pointed=True)
    projection = simple_quotient(c)[1]
    part, inclusion = reachable_part(c)
    for h in (projection, inclusion):
        q, kappa = apply_partition_quotient(h.dom, kernel_partition(h))
        fact = factorize(h)
        assert are_isomorphic(q, fact.image) is not None
        assert check_homomorphism(kappa)


def test_cancellation_quotient_has_empty_point_structure():
    c = systems.cancel_fork()
    q, kappa = apply_partition_quotient(c, Partition.of([("a",), ("b1", "b2")]))
    assert q.states == ("a", "b1")
    assert q.structure["a"] == ()
    assert check_homomorphism(kappa)


def test_discrete_partition_gives_an_isomorphic_quotient():
    c = systems.ts_branching()
    q, kappa = apply_partition_quotient(c, Partition.discrete(c.states))
    assert kappa.is_bijective()
    assert q.states == tuple(sorted(c.states))


def test_incompatible_partition_is_rejected_with_witnesses():
    c = systems.ts_branching()
    with pytest.raises(IncompatiblePartition) as err:
        apply_partition_quotient(c, Partition.of([("x", "z"), ("y",)]))
    assert {err.value.x, err.value.y} == {"x", "z"}


def test_partition_must_cover_the_carrier():
    c = systems.ts_branching()
    with pytest.raises(NotAPartition):
        apply_partition_quotient(c, Partition.of([("x", "y")]))
    with pytest.raises(NotAPartition):
        Partition.of([("x",), ("x", "y")])


@pytest.mark.parametrize("blocks, member", [([["a", 1]], "1"), ([[["x"]]], "['x']")])
def test_partition_members_must_be_state_ids(blocks, member):
    with pytest.raises(NotAPartition, match=re.escape(f"member {member} is not")):
        Partition.of(blocks)


def test_partition_canonical_form_and_join():
    p = Partition.of([("c", "b"), ("a",)])
    assert p.blocks == (("a",), ("b", "c"))
    assert Partition.discrete("abc").refines(p)
    assert not p.refines(Partition.discrete("abc"))


_RATIONAL = WeightedFunctor("rational")
_ONE_EDGE = _RATIONAL.struct({"a": 1})


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: diagonal_fill_in({"a": "b"}, {"c": "d"}, {}, {"b": "d"}),
         InvalidMorphism, "e and f must share their domain"),
        (lambda: diagonal_fill_in({"a": "x"}, {"c": "d"}, {"a": "c"}, {"b": "d"}),
         InvalidMorphism, "e must land in the domain of g"),
        (lambda: diagonal_fill_in({"a": "b"}, {"c": "d"}, {"a": "z"}, {"b": "d"}),
         InvalidMorphism, "f must land in the domain of m"),
        (lambda: WeightedFunctor("integer"), ValueError,
         "monoid must be rational or natural, got 'integer'"),
        (lambda: Coalgebra(_RATIONAL, ("a",), {"a": (("a", 0.5),)}),
         ValidationError, "malformed-structure: state 'a': non-exact weight 0.5"),
        (lambda: _RATIONAL.pair_structure(_ONE_EDGE, _ONE_EDGE, {"a": "a"}, {"a": 0}, min),
         SpecMismatch, "no kernel-pair structure for WeightedFunctor(monoid='rational')"),
        (lambda: random_coalgebra(PowersetFunctor(), -1, 0),
         ValueError, "n_states must be nonnegative"),
        (lambda: random_coalgebra(PowersetFunctor(), 0, 0, pointed=True),
         ValueError, "a pointed coalgebra needs at least one state"),
    ],
    ids=["fill-in-domains", "fill-in-e", "fill-in-f", "monoid", "float-weight",
         "rational-kernel-pair", "negative-size", "pointed-empty"],
)
def test_each_refusal_has_its_type_and_message(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


# -- value semantics -----------------------------------------------------------


def _two_cycle_values():
    """Each value class of core, oracles and wellpointed, built from the
    two-cycle system, with one value of other fields."""
    c = systems.ts_two_cycle()
    h = identity_morphism(c)
    f = factorize(h)
    return {
        "Violation": (Violation("dangling-state", "m", "z"), Violation("dangling-state", "m")),
        "Coalgebra": (c, underlying(c)),
        "Morphism": (h, identity_morphism(underlying(c))),
        "Factorization": (f, factorize(identity_morphism(underlying(c)))),
        "Partition": (Partition.discrete(c.states), Partition.of([c.states])),
        "PropertyReport": (PropertyReport("p", 2, ()), PropertyReport("p", 3, ())),
        "CommutationReport": (CommutationReport(c, c, True, h), CommutationReport(c, c, False, None)),
    }


VALUE_CLASSES = list(_two_cycle_values())


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_values_compare_by_their_fields_and_stay_read_only(name):
    a, other = _two_cycle_values()[name]
    b, _ = _two_cycle_values()[name]
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if name in ("Violation", "Partition", "PropertyReport"):  # fields all hashable
        assert hash(a) == hash(b) and len({a, b}) == 1
    for field in (*a._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_values_pickle_and_deep_copy(name):
    a, _ = _two_cycle_values()[name]
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a


def test_equal_fields_of_different_classes_are_unequal():
    assert Violation("a", "b", "c") != Factorization("a", "b", "c")


def test_value_reprs_are_pinned():
    assert repr(Partition.of([["b", "a"], ["c"]])) == "Partition(blocks=(('a', 'b'), ('c',)))"
    assert repr(Violation("dangling-state", "map sends 'a' outside the codomain", "a")) == (
        "Violation(code='dangling-state', message=\"map sends 'a' outside the codomain\", "
        "witness='a')"
    )
    assert repr(Violation("non-string-id", "m")) == (
        "Violation(code='non-string-id', message='m', witness=None)"
    )
