"""Document round trips, canonicalization, DOT output, corpus sync."""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coalgmin import (
    Partition,
    emit_dot,
    parse_coalgebra,
    parse_morphism,
    parse_partition,
    random_coalgebra,
    serialize_coalgebra,
    serialize_morphism,
    serialize_partition,
    underlying,
)
from coalgmin import systems
from coalgmin.core import Coalgebra, Morphism
from coalgmin.errors import ParseError, ValidationError
from coalgmin.formats import canonical_json
from coalgmin.functors import (
    _literal_weight,
    DfaFunctor,
    LabelledFunctor,
    PowersetFunctor,
    WeightedFunctor,
)

from conftest import corpus_path


def test_corpus_files_match_the_builders(corpus_dir):
    for name, builder in systems.ALL_SYSTEMS.items():
        assert corpus_path(name).read_text() == serialize_coalgebra(builder()), name
    for name, builder in systems.MORPHISM_DOCS.items():
        assert corpus_path(name).read_text() == canonical_json({"map": builder()}), name
    assert corpus_path("cancel_fork_partition").read_text() == serialize_partition(
        Partition.of([("a",), ("b1", "b2")])
    )


def test_corpus_round_trips_bit_exactly(corpus_dir):
    for name in systems.ALL_SYSTEMS:
        text = corpus_path(name).read_text()
        assert serialize_coalgebra(parse_coalgebra(text)) == text, name


def test_main_dfa_document_parses_with_four_states():
    c = parse_coalgebra(corpus_path("dfa_no_trailing_b").read_text())
    assert c.point is not None
    assert len(c.states) == 4
    assert c.point == "s"


def test_weight_strings_normalize_on_parse():
    doc = {
        "functor": {"kind": "weighted", "monoid": "rational"},
        "states": ["x", "y"],
        "structure": {"x": {"y": "2/4"}, "y": {}},
    }
    c = parse_coalgebra(json.dumps(doc))
    assert dict(c.structure["x"].weights) == {"y": Fraction(1, 2)}
    assert '"1/2"' in serialize_coalgebra(c)


def test_zero_weight_document_is_a_validation_error():
    doc = {
        "functor": {"kind": "weighted", "monoid": "rational"},
        "states": ["x"],
        "structure": {"x": {"x": "0"}},
    }
    with pytest.raises(ValidationError) as err:
        parse_coalgebra(json.dumps(doc))
    assert any(v.code == "zero-weight-entry" for v in err.value.violations)


def test_negative_natural_weight_is_rejected_at_parse():
    doc = {
        "functor": {"kind": "weighted", "monoid": "natural"},
        "states": ["x"],
        "structure": {"x": {"x": "-1"}},
    }
    with pytest.raises(ValidationError):
        parse_coalgebra(json.dumps(doc))


def test_dangling_reference_reports_every_violation():
    doc = {
        "functor": {"kind": "powerset"},
        "states": ["x"],
        "structure": {"x": ["z"], "ghost": []},
        "point": "nowhere",
    }
    with pytest.raises(ValidationError) as err:
        parse_coalgebra(json.dumps(doc))
    codes = {v.code for v in err.value.violations}
    assert "dangling-state" in codes
    assert "point-not-in-carrier" in codes


@pytest.mark.parametrize("structure", [
    {"accepting": "no", "next": {"a": "x"}},
    {"accepting": 0, "next": {"a": "x"}},
    {"next": {"a": "x"}},
])
def test_dfa_accepting_must_be_a_boolean(structure):
    doc = {
        "functor": {"kind": "dfa", "alphabet": ["a"]},
        "states": ["x"],
        "structure": {"x": structure},
    }
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(doc))


@pytest.mark.parametrize("functor, structure", [
    ({"kind": "dfa", "alphabet": ["a"]}, {"accepting": True, "next": {"a": 1}}),
    ({"kind": "labelled-powerset", "labels": ["a"]}, [["a", 1]]),
    ({"kind": "labelled-powerset", "labels": ["a"]}, [[None, "1"]]),
    ({"kind": "powerset"}, [1]),
])
def test_state_ids_and_labels_must_be_strings(functor, structure):
    doc = {"functor": functor, "states": ["1"], "structure": {"1": structure}}
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(doc))


@pytest.mark.parametrize("functor, structure", [
    ({"kind": "powerset"}, {"1": ["\ud800"]}),
    ({"kind": "labelled-powerset", "labels": ["\udc00"]}, {"1": [["\udc00", "1"]]}),
], ids=["state-id", "label"])
def test_lone_surrogates_are_rejected(functor, structure):
    doc = {"functor": functor, "states": ["1", "\ud800"], "structure": structure}
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(doc))


def test_a_surrogate_pair_is_one_character():
    smiley = "\U0001f600"
    doc = {"functor": {"kind": "powerset"}, "states": [smiley], "structure": {smiley: []}}
    assert "\\ud83d\\ude00" in json.dumps(doc)
    assert parse_coalgebra(json.dumps(doc)).states == (smiley,)


@pytest.mark.parametrize("functor", [
    {"kind": "dfa", "alphabet": []},
    {"kind": "labelled-powerset", "labels": ["a", "a"]},
    {"kind": "weighted", "monoid": "integer"},
    {"kind": "nonsense"},
])
def test_bad_functor_descriptors_are_parse_errors(functor):
    doc = {"functor": functor, "states": [], "structure": {}}
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(doc))


@pytest.mark.parametrize(
    "weight", ["1e400", "0.5", " 3 ", "+3", "1.0", "", "1/", "/2", "1/0", "inf", "1_000", "\u0661"]
)
def test_weights_must_be_integer_or_fraction_literals(weight):
    doc = {
        "functor": {"kind": "weighted", "monoid": "rational"},
        "states": ["x"],
        "structure": {"x": {"x": weight}},
    }
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(doc))


@pytest.mark.parametrize(
    "weight, value",
    [("-3", Fraction(-3)), ("-6/4", Fraction(-3, 2)), ("123/7", Fraction(123, 7)), ("07", Fraction(7))],
)
def test_integer_and_fraction_literals_are_accepted(weight, value):
    doc = {
        "functor": {"kind": "weighted", "monoid": "rational"},
        "states": ["x"],
        "structure": {"x": {"x": weight}},
    }
    assert dict(parse_coalgebra(json.dumps(doc)).structure["x"].weights) == {"x": value}


def test_malformed_json_reports_the_line():
    with pytest.raises(ParseError) as err:
        parse_coalgebra('{\n  "functor": }')
    assert err.value.line == 2


def test_morphism_document_checks_totality():
    dom = underlying(systems.dfa_no_trailing_b())
    cod = underlying(systems.dfa_merge_target())
    with pytest.raises(ValidationError):
        parse_morphism(json.dumps({"map": {"q": "p_bar"}}), dom, cod)
    with pytest.raises(ValidationError):
        parse_morphism(
            json.dumps({"map": {s: "ghost" for s in dom.states}}), dom, cod
        )
    h = parse_morphism(corpus_path("dfa_merge_map").read_text(), dom, cod)
    assert h.mapping == systems.dfa_merge_map()


def test_morphism_round_trip():
    dom = underlying(systems.dfa_no_trailing_b())
    cod = underlying(systems.dfa_merge_target())
    h = Morphism(dom, cod, systems.dfa_merge_map())
    text = serialize_morphism(h)
    assert serialize_morphism(parse_morphism(text, dom, cod)) == text


def test_partition_round_trip():
    p = Partition.of([("b", "a"), ("c",)])
    assert parse_partition(serialize_partition(p)) == p


@pytest.mark.parametrize(
    "spec,pool",
    [
        (DfaFunctor(("a", "b")), None),
        (PowersetFunctor(), None),
        (LabelledFunctor(("l", "r")), None),
        (WeightedFunctor("rational"), (3, -3, "1/2")),
        (WeightedFunctor("natural"), (1, 2)),
    ],
    ids=("dfa", "powerset", "labelled", "rational", "bag"),
)
@given(seed=st.integers(0, 500), n=st.integers(0, 6))
def test_serialize_parse_round_trip(spec, pool, seed, n):
    if n == 0 and isinstance(spec, DfaFunctor):
        n = 1
    c = random_coalgebra(spec, n, seed, weight_pool=pool, density=0.5, pointed=n > 0)
    text = serialize_coalgebra(c)
    assert parse_coalgebra(text) == c
    assert serialize_coalgebra(parse_coalgebra(text)) == text


# -- canonical JSON emitter ---------------------------------------------------


def reference_json(payload) -> str:
    """What ``canonical_json`` must write, byte for byte."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def outcome(emit, payload):
    try:
        return emit(payload)
    except (TypeError, ValueError) as exc:  # unsortable keys, unencodable values
        return type(exc), str(exc)


# Every character, surrogates, controls, quotes and astral ones included.
any_text = st.text(st.characters(exclude_categories=()))
json_leaves = (
    any_text
    | st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u2028", "\U0001f600", "\ud800"])
    | st.booleans()
    | st.none()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**310)
    | st.floats()
)
# Floats, tuples, dicts with keys that are not strings and deep nesting: these
# pin that ``canonical_json`` is ``json.dumps`` for every value.
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(any_text, inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.integers() | st.booleans() | st.none() | any_text, inner, max_size=3),
    max_leaves=30,
)


@given(json_values)
def test_canonical_json_writes_the_bytes_of_json_dumps(payload):
    assert outcome(canonical_json, payload) == outcome(reference_json, payload)


def test_canonical_json_matches_json_dumps_on_large_benchmark_documents():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for family in gen.FAMILIES:
        doc, _ = gen.sparse(family, 3000, random.Random(1))
        assert canonical_json(doc) == reference_json(doc), family
        serialized = serialize_coalgebra(parse_coalgebra(json.dumps(doc)))
        assert serialized == reference_json(json.loads(serialized)), family


def test_canonical_json_fails_as_json_dumps_does():
    cycle = []
    cycle.append({"a": cycle})
    too_long = {"n": [10**5000]}  # past the digit limit of int -> str
    for payload in (cycle, too_long):
        assert isinstance(outcome(reference_json, payload), tuple)
        assert outcome(canonical_json, payload) == outcome(reference_json, payload)


@pytest.mark.parametrize("payload", [object(), {"a": [1, {"b": {1, 2}}]}, [[[[[[object()]]]]]]])
def test_canonical_json_refuses_values_json_cannot_write(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)


# -- weight literals ----------------------------------------------------------


def weighted_doc(monoid, weights):
    states = [f"s{i}" for i in range(len(weights))]
    structure = {s: {s: w} for s, w in zip(states, weights)}
    doc = {"functor": {"kind": "weighted", "monoid": monoid}, "states": states, "structure": structure}
    return json.dumps(doc)


@pytest.mark.parametrize("monoid, weight, expected", [
    ("rational", "2/4", Fraction(1, 2)),
    ("rational", "0", "zero-weight-entry"),
    ("rational", "-0/3", "zero-weight-entry"),
    ("rational", "1e400", ParseError),
    ("rational", ["1"], ParseError),
    ("natural", "-2", "malformed-structure"),
    ("natural", "3/2", "malformed-structure"),
    ("natural", "6/2", Fraction(3)),
])
def test_a_weight_literal_reads_the_same_every_time(monoid, weight, expected):
    for _ in range(3):  # the first read fills the literal memo, the others hit it
        if isinstance(expected, Fraction):
            c = parse_coalgebra(weighted_doc(monoid, [weight]))
            assert dict(c.structure["s0"].weights) == {"s0": expected}
        elif expected is ParseError:
            with pytest.raises(ParseError):
                parse_coalgebra(weighted_doc(monoid, [weight]))
        else:
            with pytest.raises(ValidationError) as err:
                parse_coalgebra(weighted_doc(monoid, [weight]))
            assert [v.code for v in err.value.violations] == [expected]


def test_more_distinct_weight_literals_than_the_memo_holds():
    bound = _literal_weight.cache_info().maxsize
    weights = [f"{k}/{k + 1}" for k in range(1, 2 * bound + 2)]
    for _ in range(2):
        c = parse_coalgebra(weighted_doc("rational", weights))
        for i, w in enumerate(weights):
            assert dict(c.structure[f"s{i}"].weights) == {f"s{i}": Fraction(w)}
        assert _literal_weight.cache_info().currsize == bound


# -- DOT -----------------------------------------------------------------------


def test_dot_for_a_pointed_singleton_loop():
    dot = emit_dot(systems.ts_single_loop())
    assert dot.count("->") == 2  # the point arrow and the loop
    assert '"__point" -> "q0";' in dot
    assert '"q0" -> "q0";' in dot


def test_dot_start_node_avoids_a_state_named_like_it():
    ps = PowersetFunctor()
    c = Coalgebra(ps, ("__point",), {"__point": ps.struct(["__point"])}, "__point")
    dot = emit_dot(c)
    assert '"__point_" [shape=none' in dot
    assert '"__point_" -> "__point";' in dot
    assert '"__point" [shape=circle];' in dot


def test_dot_marks_accepting_states_with_double_circles():
    dot = emit_dot(systems.dfa_no_trailing_b())
    assert dot.count("doublecircle") == 3
    assert dot.count("[shape=circle]") == 1
    # 8 labelled transitions plus the point arrow
    assert dot.count("->") == 9
    assert '"q" -> "p" [label="a"];' in dot


def test_dot_is_stable_under_document_round_trips():
    for name in ("weighted_flow", "labelled_handshake", "bag_double_edge"):
        c = parse_coalgebra(corpus_path(name).read_text())
        assert emit_dot(parse_coalgebra(serialize_coalgebra(c))) == emit_dot(c)


def test_dot_labels_weighted_edges():
    dot = emit_dot(systems.weighted_pair_merge())
    assert '[label="-7"]' in dot
    assert '[label="4"]' in dot


@pytest.mark.parametrize("blocks", [["ab", "c"], [[1, 2]], [5], [["a", None]], [["a"], "b"]])
def test_partition_blocks_must_be_lists_of_strings(blocks):
    with pytest.raises(ParseError):
        parse_partition(json.dumps({"blocks": blocks}))


@pytest.mark.parametrize("target", [1, None, ["p_bar"]])
def test_morphism_targets_must_be_strings(target):
    dom = underlying(systems.dfa_no_trailing_b())
    cod = underlying(systems.dfa_merge_target())
    mapping = {**systems.dfa_merge_map(), "q": target}
    with pytest.raises(ParseError):
        parse_morphism(json.dumps({"map": mapping}), dom, cod)
