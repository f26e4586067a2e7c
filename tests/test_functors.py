"""Functor kernel: structure construction, fmap, support."""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coalgmin import (
    Coalgebra,
    DfaFunctor,
    LabelledFunctor,
    PowersetFunctor,
    WeightedFunctor,
    parse_coalgebra,
    serialize_coalgebra,
)
from coalgmin.errors import MalformedStructure, PartialMap, ValidationError
from coalgmin.formats import parse_functor
from coalgmin.functors import KINDS, DfaStruct
from coalgmin.suites import FUNCTOR_FAMILIES

DFA = DfaFunctor(("a", "b"))
PS = PowersetFunctor()
LTS = LabelledFunctor(("a", "b"))
RAT = WeightedFunctor("rational")
BAG = WeightedFunctor("natural")


def test_alphabet_must_be_distinct_and_nonempty():
    with pytest.raises(ValueError):
        DfaFunctor(())
    with pytest.raises(ValueError):
        DfaFunctor(("a", "a"))
    with pytest.raises(ValueError):
        LabelledFunctor(("x", "x"))
    with pytest.raises(ValueError):
        DfaFunctor((["a"],))
    with pytest.raises(ValueError):
        LabelledFunctor(([1],))
    with pytest.raises(ValueError):
        DfaFunctor("ab")  # not the alphabet ("a", "b")
    for parameter in ({"a": 1}, None, 3):  # not a dict's keys, nor a TypeError
        with pytest.raises(ValueError):
            DfaFunctor(parameter)
        with pytest.raises(ValueError):
            LabelledFunctor(parameter)
        with pytest.raises(ValueError):
            WeightedFunctor(parameter)


def test_every_kind_parses_its_own_descriptor():
    specs = [DFA, PS, LTS, RAT, BAG]
    assert {spec.kind for spec in specs} == set(KINDS)
    for spec in specs:
        assert parse_functor(spec.payload()) == spec
        assert parse_functor(json.loads(json.dumps(spec.payload()))) == spec
    assert json.loads(json.dumps(DFA.payload())) == {"kind": "dfa", "alphabet": ["a", "b"]}
    assert PS.payload() == {"kind": "powerset"}
    assert RAT.payload() == {"kind": "weighted", "monoid": "rational"}


def test_inverse_image_flags():
    assert DFA.preserves_inverse_images
    assert PS.preserves_inverse_images
    assert LTS.preserves_inverse_images
    assert BAG.preserves_inverse_images
    assert not RAT.preserves_inverse_images


def test_weighted_fmap_sums_weights_of_merged_targets():
    # merging p and s: -2 + 3 = 1
    t = RAT.struct({"p": -2, "s": 3})
    merged = RAT.fmap({"p": "s_bar", "s": "s_bar"}, t)
    assert merged == RAT.struct({"s_bar": 1})


def test_weighted_fmap_drops_cancelled_weights():
    t = RAT.struct({"b1": 3, "b2": -3})
    merged = RAT.fmap({"b1": "b", "b2": "b"}, t)
    assert merged == ()
    assert RAT.support(merged) == frozenset()


def test_weighted_fmap_drops_an_entry_whose_merged_weights_cancel():
    t = RAT.struct({"p": 1, "q": -1, "r": 2})
    assert RAT.fmap({"p": "s", "q": "s", "r": "r"}, t) == (("r", Fraction(2)),)


def test_weighted_fmap_adds_merged_fractions_exactly():
    t = RAT.struct({"p": Fraction(1, 2), "q": Fraction(1, 2)})
    merged = RAT.fmap({"p": "s", "q": "s"}, t)
    assert merged == (("s", Fraction(1)),)


def test_weighted_fmap_under_an_injective_map_keeps_the_weights():
    t = RAT.struct({"p": Fraction(-1, 3), "q": 4})
    renamed = RAT.fmap({"p": "b", "q": "a"}, t)
    assert renamed == (("a", Fraction(4)), ("b", Fraction(-1, 3)))


@pytest.mark.parametrize("spec", [RAT, BAG], ids=["rational", "natural"])
@pytest.mark.parametrize("mapping", [
    {"p": "p", "q": "q", "r": "r"},
    {"p": "s", "q": "s", "r": "r"},
    {"p": "s", "q": "s", "r": "s"},
])
def test_weighted_fmap_weights_are_fractions(spec, mapping):
    t = spec.struct({"p": 1, "q": 2, "r": 3})
    image = spec.fmap(mapping, t)
    assert image
    assert all(type(w) is Fraction for _, w in image)
    spec.check_structure(image)


def test_powerset_fmap_is_set_image():
    t = PS.struct({"q1", "q2"})
    assert PS.fmap({"q1": "x", "q2": "x"}, t) == PS.struct({"x"})


@pytest.mark.parametrize(
    "spec, t, targets",
    [
        (DFA, DFA.struct(True, {"a": "p", "b": "r"}), lambda t: [s for _, s in t.moves]),
        (PS, PS.struct(["p", "q", "r", "s"]), lambda t: list(t)),
        (LTS, LTS.struct([("a", "p"), ("b", "q"), ("a", "r")]), lambda t: [s for _, s in t]),
        (RAT, RAT.struct({"p": 1, "q": -1, "r": "1/2"}), lambda t: [s for s, _ in t]),
    ],
    ids=["dfa", "powerset", "labelled", "weighted"],
)
def test_fmap_of_a_partial_map_names_the_first_unmapped_state(spec, t, targets):
    # "first" in the order the structure holds its targets
    order = targets(t)
    for mapped in (order[:1], order[-1:], []):
        with pytest.raises(PartialMap) as err:
            spec.fmap({s: "x" for s in mapped}, t)
        missing = next(s for s in order if s not in mapped)
        assert str(err.value) == f"map is undefined at state {missing!r}"


def test_fmap_identity_is_identity():
    t = DFA.struct(True, {"a": "p", "b": "r"})
    ident = {"p": "p", "r": "r"}
    assert DFA.fmap(ident, t) == t


def test_support_dfa_is_range_of_moves():
    t = DFA.struct(True, {"a": "p", "b": "r"})
    assert DFA.support(t) == {"p", "r"}


def test_support_weighted():
    assert RAT.support(RAT.struct({})) == frozenset()
    assert RAT.support(RAT.struct({"p": -2, "s": 3})) == {"p", "s"}


def test_structures_equal_is_order_insensitive():
    assert PS.struct(["p", "r"]) == PS.struct(["r", "p"])
    t = LTS.struct([("a", "x"), ("b", "y")])
    assert t == LTS.struct([("b", "y"), ("a", "x")])


def test_zero_weight_entries_are_rejected_at_construction():
    with pytest.raises(MalformedStructure):
        RAT.struct({"p": 1, "r": 0})
    with pytest.raises(MalformedStructure):
        RAT.struct({"p": "0/5"})


def test_naturals_reject_negative_and_fractional_weights():
    with pytest.raises(MalformedStructure):
        BAG.struct({"p": -1})
    with pytest.raises(MalformedStructure):
        BAG.struct({"p": Fraction(1, 2)})
    assert BAG.struct({"p": 2}) == (("p", Fraction(2)),)


def test_dfa_struct_requires_total_moves():
    with pytest.raises(MalformedStructure):
        DFA.struct(True, {"a": "p"})
    with pytest.raises(MalformedStructure):
        DFA.struct(True, {"a": "p", "b": "r", "c": "q"})


@pytest.mark.parametrize(
    "build",
    [
        lambda: RAT.struct({"p": "1e400"}),
        lambda: RAT.struct({"p": "0.5"}),
        lambda: RAT.struct({"p": True}),
        lambda: BAG.struct({"p": True}),
        lambda: RAT.random_pool(["0.5"]),
        lambda: LTS.struct([("c", "x")]),
        lambda: DFA.struct("no", {"a": "x", "b": "x"}),
        lambda: DFA.struct(1, {"a": "x", "b": "x"}),
    ],
    ids=[
        "exponent-weight", "decimal-weight", "bool-weight", "bool-bag-weight",
        "decimal-pool-weight", "unknown-label", "string-acceptance", "int-acceptance",
    ],
)
def test_builders_reject_what_documents_reject(build):
    with pytest.raises(MalformedStructure):
        build()


def test_a_raw_non_boolean_acceptance_fails_validation():
    with pytest.raises(ValidationError) as err:
        Coalgebra(DFA, ("x",), {"x": DfaStruct(1, (("a", "x"), ("b", "x")))})
    assert [v.code for v in err.value.violations] == ["malformed-structure"]


@pytest.mark.parametrize(
    "spec, raw",
    [
        (LTS, frozenset({("a", "x", "y")})),
        (RAT, ((5, Fraction(1)), ("x", Fraction(1)))),
        (PS, ["x"]),
        (DFA, DfaStruct(True, (("a",),))),
        (RAT, (("x",),)),
    ],
    ids=["labelled-triple", "weighted-mixed-targets", "powerset-list", "dfa-short-move",
         "weighted-short-entry"],
)
def test_malformed_raw_structures_are_violations(spec, raw):
    with pytest.raises(ValidationError) as err:
        Coalgebra(spec, ("x",), {"x": raw})
    assert [(v.code, v.witness) for v in err.value.violations] == [("malformed-structure", "x")]


@pytest.mark.parametrize(
    "spec, build",
    [
        (DFA, lambda: DFA.struct(True, {"a": 5, "b": "5"})),
        (PS, lambda: PS.struct([5])),
        (LTS, lambda: LTS.struct([("a", 5)])),
        (RAT, lambda: RAT.struct({5: 1})),
    ],
    ids=["dfa", "powerset", "labelled", "weighted"],
)
def test_make_rejects_a_non_string_target_as_dangling(spec, build):
    with pytest.raises(ValidationError) as err:
        Coalgebra(spec, ("5",), {"5": build()})
    assert [(v.code, v.witness) for v in err.value.violations] == [("dangling-state", 5)]


# -- a structure of the wrong functor or the wrong container -------------------

FAMILY_SPECS = {family: spec for family, spec, _ in FUNCTOR_FAMILIES}
# each family's structure of the state "x", from its own ``struct``
FAMILY_STRUCTS = {
    "dfa": FAMILY_SPECS["dfa"].struct(True, {"a": "x", "b": "x"}),
    "powerset": FAMILY_SPECS["powerset"].struct(["x"]),
    "labelled": FAMILY_SPECS["labelled"].struct([("a", "x"), ("b", "x")]),
    "bag": FAMILY_SPECS["bag"].struct({"x": 2}),
    "rational": FAMILY_SPECS["rational"].struct({"x": "-1/2"}),
}


# A bag is a rational-weighted structure with positive integer weights, so
# the one pair of a family and another family's structure that is well
# formed puts a bag in a rational-weighted system.
WRONG_FAMILY = [(family, other) for family in FAMILY_SPECS for other in FAMILY_SPECS
                if other != family and (family, other) != ("rational", "bag")]


@pytest.mark.parametrize("family, other", WRONG_FAMILY,
                         ids=[f"{family}-gets-{other}" for family, other in WRONG_FAMILY])
def test_another_functors_structures_raise_a_validation_error(family, other):
    # the functor methods trust their input; the constructor validates it
    foreign = FAMILY_STRUCTS[other]
    with pytest.raises(ValidationError) as err:
        Coalgebra(FAMILY_SPECS[family], ("x",), {"x": foreign})
    expected = [("malformed-structure", "x")]
    if (family, other) == ("powerset", "labelled"):
        # a powerset structure is a frozenset of states: pairs are unknown states
        expected = [("dangling-state", edge) for edge in sorted(foreign, key=str)]
    assert [(v.code, v.witness) for v in err.value.violations] == expected


def test_a_bag_is_a_rational_weighted_structure():
    bag = FAMILY_STRUCTS["bag"]
    assert Coalgebra(FAMILY_SPECS["rational"], ("x",), {"x": bag}).structure["x"] == bag


def _as_dict(entries) -> dict:
    """The entries as a dict: pairs as its items, anything else as its keys."""
    if all(type(e) is tuple for e in entries):
        return dict(entries)
    return dict.fromkeys(entries)


@pytest.mark.parametrize("container", [list, set, _as_dict], ids=["list", "set", "dict"])
@pytest.mark.parametrize("family", FAMILY_SPECS)
def test_a_structure_in_the_wrong_container_is_a_validation_error(family, container):
    t = FAMILY_STRUCTS[family]
    # a DFA structure is a record; its container is the tuple of moves
    wrong = DfaStruct(t.accepting, container(t.moves)) if family == "dfa" else container(t)
    with pytest.raises(ValidationError) as err:
        Coalgebra(FAMILY_SPECS[family], ("x",), {"x": wrong})
    assert [v.code for v in err.value.violations] == ["malformed-structure"]


@pytest.mark.parametrize("family", FAMILY_SPECS)
def test_every_method_that_makes_a_structure_returns_the_structure_type(family):
    spec, t = FAMILY_SPECS[family], FAMILY_STRUCTS[family]
    c = Coalgebra(spec, ("x", "y"), {"x": t, "y": spec.fmap({"x": "y"}, t)})
    payload = json.loads(serialize_coalgebra(c))["structure"]["x"]
    made = {
        "struct": t,
        "read": spec.read(payload, "x", {"x", "y"})[0],
        "fmap": spec.fmap({"x": "y"}, t),
        "join": spec.join(*spec.split(t)),
        "join of no edges": spec.join(spec.split(t)[0], []),
    }
    assert {name: type(value) for name, value in made.items()} == dict.fromkeys(
        made, spec.structure_type
    )
    assert made["read"] == made["join"] == t


# -- algebraic laws ----------------------------------------------------------

specs = st.sampled_from([DFA, PS, LTS, RAT, BAG])
states = ("u", "v", "w")


def _arbitrary_structure(spec, draw):
    if isinstance(spec, DfaFunctor):
        return spec.struct(
            draw(st.booleans()),
            {a: draw(st.sampled_from(states)) for a in spec.alphabet},
        )
    if isinstance(spec, PowersetFunctor):
        return spec.struct(draw(st.sets(st.sampled_from(states))))
    if isinstance(spec, LabelledFunctor):
        return spec.struct(
            draw(
                st.sets(
                    st.tuples(st.sampled_from(spec.labels), st.sampled_from(states))
                )
            )
        )
    pool = [1, 2, "4"] if spec.monoid == "natural" else [3, -3, Fraction(1, 2), "-5/7"]
    weights = {}
    for s in states:
        if draw(st.booleans()):
            weights[s] = draw(st.sampled_from(pool))
    return spec.struct(weights)


@st.composite
def spec_and_structure(draw):
    spec = draw(specs)
    return spec, _arbitrary_structure(spec, draw)


@st.composite
def total_map(draw):
    return {s: draw(st.sampled_from(states)) for s in states}


@given(spec_and_structure(), total_map(), total_map())
def test_fmap_respects_composition(spec_t, g, h):
    spec, t = spec_t
    composed = {s: g[h[s]] for s in states}
    assert spec.fmap(composed, t) == spec.fmap(g, spec.fmap(h, t))


@given(spec_and_structure())
def test_fmap_respects_identity(spec_t):
    spec, t = spec_t
    assert spec.fmap({s: s for s in states}, t) == t


@given(spec_and_structure(), total_map())
def test_support_of_image_is_bounded_by_image_of_support(spec_t, h):
    spec, t = spec_t
    image_support = spec.support(spec.fmap(h, t))
    mapped = {h[s] for s in spec.support(t)}
    if isinstance(spec, WeightedFunctor):
        assert image_support <= mapped  # weights may cancel
    else:
        assert image_support == mapped


@given(specs, st.data())
def test_built_coalgebras_round_trip_through_documents(spec, data):
    structure = {s: _arbitrary_structure(spec, data.draw) for s in states}
    point = data.draw(st.sampled_from((None,) + states))
    c = Coalgebra(spec, states, structure, point)
    text = serialize_coalgebra(c)
    assert parse_coalgebra(text) == c
    assert serialize_coalgebra(parse_coalgebra(text)) == text


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12), st.integers(1, 12))
def test_exact_weight_arithmetic_roundtrips(a, b, p, q):
    x, y = Fraction(a, p), Fraction(b, q)
    assert x + y - y == x
    assert (x + y).denominator > 0


# -- value semantics -----------------------------------------------------------

# each value class of functors.py: a value, built twice, and one with other fields
VALUES = {
    "DfaStruct": (lambda: DfaStruct(True, (("a", "s"), ("b", "t"))),
                  DfaStruct(False, (("a", "s"), ("b", "t")))),
    "DfaFunctor": (lambda: DfaFunctor(["a", "b"]), DfaFunctor(("b", "a"))),
    "PowersetFunctor": (lambda: PowersetFunctor(), None),
    "LabelledFunctor": (lambda: LabelledFunctor(("a", "b")), LabelledFunctor(("a",))),
    "WeightedFunctor": (lambda: WeightedFunctor("rational"), WeightedFunctor("natural")),
}


@pytest.mark.parametrize("make, other", VALUES.values(), ids=VALUES.keys())
def test_values_compare_and_hash_by_their_fields(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if other is not None:
        assert a != other and not a == other
    assert a != object() and a != repr(a)


@pytest.mark.parametrize("make", [make for make, _ in VALUES.values()], ids=VALUES.keys())
def test_values_are_read_only(make):
    a = make()
    for name in (*a._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == make()


@pytest.mark.parametrize("make", [make for make, _ in VALUES.values()], ids=VALUES.keys())
def test_values_pickle_and_deep_copy(make):
    a = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) == a
    assert copy.deepcopy(a) == a
    assert copy.copy(a) == a


def test_equal_fields_of_different_classes_are_unequal():
    assert DfaFunctor(("a", "b")) != LabelledFunctor(("a", "b"))
    assert DfaStruct(True, ()) != (True, ())


def test_value_reprs_are_pinned():
    assert repr(PowersetFunctor()) == "PowersetFunctor()"
    assert repr(DfaStruct(True, (("a", "s"),))) == "DfaStruct(accepting=True, moves=(('a', 's'),))"
    assert repr(DfaFunctor(["a"])) == "DfaFunctor(alphabet=('a',))"
    assert repr(LabelledFunctor(("a",))) == "LabelledFunctor(labels=('a',))"
    assert repr(WeightedFunctor("natural")) == "WeightedFunctor(monoid='natural')"
