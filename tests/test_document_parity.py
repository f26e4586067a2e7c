"""Documents read and write exactly as the constructor and ``json.dumps`` do.

``parse_coalgebra`` decodes and checks each structure in one pass and builds
an admitted document without validating it again; every other document goes
through the ``Coalgebra`` constructor.  The writers build each document's
text straight from its structures.  These tests pin both against their
references: the error lines of bad documents, the constructor's verdict on
random and corrupted documents, and ``json.dumps`` of payloads the tests
build themselves.
"""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coalgmin import (
    Coalgebra,
    DfaFunctor,
    LabelledFunctor,
    Morphism,
    Partition,
    PowersetFunctor,
    WeightedFunctor,
    core,
    parse_coalgebra,
    random_coalgebra,
    serialize_coalgebra,
    serialize_morphism,
    serialize_partition,
)
from coalgmin.cli import run_command
from coalgmin.errors import ParseError, ValidationError
from coalgmin.formats import parse_functor
from coalgmin.functors import KINDS
from test_formats import reference_json
from test_functor_extension import MaybeFunctor, MaybeStruct
from test_functor_hooks import MaybeEdgesFunctor

DFA = {"kind": "dfa", "alphabet": ["a", "b"]}
PS = {"kind": "powerset"}
LTS = {"kind": "labelled-powerset", "labels": ["a", "b"]}
BAG = {"kind": "weighted", "monoid": "natural"}
RAT = {"kind": "weighted", "monoid": "rational"}


def d(functor, states, structure, **extra) -> str:
    return json.dumps(dict({"functor": functor, "states": states, "structure": structure}, **extra))


# -- the error line of each bad document, recorded before the one-pass read ----

# ``non-string-id`` is the one violation code no document can reach: ids and
# the point that are not strings are parse errors.
ERROR_LINES = [
    ("duplicate-state", d(PS, ["x", "x"], {"x": []}),
     "duplicate-state: state 'x' listed twice"),
    ("missing-structure", d(PS, ["x", "y"], {"x": ["y"]}),
     "missing-structure: state 'y' has no structure"),
    ("malformed-dfa-missing-symbol",
     d(DFA, ["s"], {"s": {"accepting": True, "next": {"a": "s"}}}),
     "malformed-structure: state 's': transition entries (('a', 's'),) do not match "
     "alphabet ('a', 'b')"),
    ("malformed-dfa-extra-symbol",
     d(DFA, ["s"], {"s": {"accepting": False, "next": {"a": "s", "c": "s", "b": "s"}}}),
     "malformed-structure: state 's': transition entries (('a', 's'), ('b', 's'), "
     "('c', 's')) do not match alphabet ('a', 'b')"),
    ("malformed-labelled-unknown-label",
     d(LTS, ["x"], {"x": [["c", "x"], ["a", "x"], ["0", "x"]]}),
     "malformed-structure: state 'x': unknown labels ['0', 'c']"),
    ("malformed-natural-fraction", d(BAG, ["x"], {"x": {"x": "1/2"}}),
     "malformed-structure: state 'x': natural-weighted structures need positive integer "
     "weights, got 1/2"),
    ("malformed-natural-negative", d(BAG, ["x", "y"], {"x": {"y": "-2"}, "y": {}}),
     "malformed-structure: state 'x': natural-weighted structures need positive integer "
     "weights, got -2"),
    ("zero-weight-entry", d(RAT, ["x"], {"x": {"x": "0/3"}}),
     "zero-weight-entry: state 'x': zero weight entries must be dropped"),
    ("zero-weight-entry-natural", d(BAG, ["x"], {"x": {"x": "0"}}),
     "zero-weight-entry: state 'x': zero weight entries must be dropped"),
    ("dangling-target-powerset", d(PS, ["x"], {"x": ["ghost", "x"]}),
     "dangling-state: structure of 'x' references unknown state 'ghost'"),
    ("dangling-target-dfa",
     d(DFA, ["s"], {"s": {"accepting": True, "next": {"a": "s", "b": "t"}}}),
     "dangling-state: structure of 's' references unknown state 't'"),
    ("dangling-target-labelled", d(LTS, ["x"], {"x": [["a", "y"], ["b", "z"]]}),
     "dangling-state: structure of 'x' references unknown state 'y'; "
     "dangling-state: structure of 'x' references unknown state 'z'"),
    ("dangling-target-weighted", d(RAT, ["x"], {"x": {"x": "1", "w": "2"}}),
     "dangling-state: structure of 'x' references unknown state 'w'"),
    ("dangling-structure", d(PS, ["x"], {"x": [], "ghost": ["x"]}),
     "dangling-state: structure given for unknown state 'ghost'"),
    ("point-not-in-carrier", d(PS, ["x"], {"x": []}, point="y"),
     "point-not-in-carrier: point 'y' not a state"),
    ("parse-dfa-not-object", d(DFA, ["s"], {"s": ["s"]}),
     "dfa structure of 's' needs a boolean 'accepting' and a 'next' object"),
    ("parse-dfa-accepting",
     d(DFA, ["s"], {"s": {"accepting": 1, "next": {"a": "s", "b": "s"}}}),
     "dfa structure of 's' needs a boolean 'accepting' and a 'next' object"),
    ("parse-dfa-next", d(DFA, ["s"], {"s": {"accepting": True, "next": ["s"]}}),
     "dfa structure of 's' needs a boolean 'accepting' and a 'next' object"),
    ("parse-dfa-target",
     d(DFA, ["s"], {"s": {"accepting": True, "next": {"a": "s", "b": 3}}}),
     "'next' targets of 's' must be a list of strings"),
    ("parse-powerset-not-list", d(PS, ["x"], {"x": "x"}),
     "successors of 'x' must be a list of strings"),
    ("parse-powerset-member", d(PS, ["x"], {"x": ["x", None]}),
     "successors of 'x' must be a list of strings"),
    ("parse-labelled-not-pairs", d(LTS, ["x"], {"x": [["a", "x", "y"]]}),
     "labelled structure of 'x' must be [label, state] pairs"),
    ("parse-labelled-non-string", d(LTS, ["x"], {"x": [["a", "x"], ["b", 7]]}),
     "edge ['b', 7] of 'x' must be a list of strings"),
    ("parse-weighted-not-object", d(RAT, ["x"], {"x": ["x"]}),
     "weighted structure of 'x' must be an object"),
    ("parse-weighted-number", d(RAT, ["x"], {"x": {"x": 1}}),
     "weight for 'x' must be a string n or n/d with d > 0, got 1"),
    ("parse-weighted-literal", d(BAG, ["x"], {"x": {"x": "1.5"}}),
     "weight for 'x' must be a string n or n/d with d > 0, got '1.5'"),
    ("parse-weighted-zero-denominator", d(RAT, ["x"], {"x": {"x": "1/0"}}),
     "weight for 'x' must be a string n or n/d with d > 0, got '1/0'"),
    ("parse-functor-missing", json.dumps({"states": [], "structure": {}}),
     "functor must be an object with a 'kind'"),
    ("parse-functor-unknown", d({"kind": "stack"}, [], {}),
     "unknown functor kind 'stack'; "
     "expected one of ('dfa', 'powerset', 'labelled-powerset', 'weighted')"),
    ("parse-functor-kind-list", d({"kind": ["dfa"]}, [], {}),
     "unknown functor kind ['dfa']; "
     "expected one of ('dfa', 'powerset', 'labelled-powerset', 'weighted')"),
    ("parse-functor-kind-object", d({"kind": {"a": 1}}, [], {}),
     "unknown functor kind {'a': 1}; "
     "expected one of ('dfa', 'powerset', 'labelled-powerset', 'weighted')"),
    ("parse-functor-alphabet", d({"kind": "dfa", "alphabet": ["a", "a"]}, [], {}),
     "bad dfa functor: alphabet contains duplicates: ('a', 'a')"),
    ("parse-functor-monoid", d({"kind": "weighted", "monoid": "real"}, [], {}),
     "bad weighted functor: monoid must be rational or natural, got 'real'"),
    ("parse-functor-monoid-missing", d({"kind": "weighted"}, [], {}),
     "bad weighted functor: monoid must be rational or natural, got None"),
    ("parse-functor-monoid-list", d({"kind": "weighted", "monoid": ["natural"]}, [], {}),
     "bad weighted functor: monoid must be rational or natural, got ['natural']"),
    ("parse-not-json", '{"functor": {"kind": "powerset"},\n "states": [}',
     "line 2: Expecting value"),
    ("parse-not-object", "[1, 2]", "document must be a JSON object"),
    ("parse-states", d(PS, ["x", 1], {"x": []}), "states must be a list of strings"),
    ("parse-structure", d(PS, ["x"], [["x"]]), "'structure' must be an object"),
    ("parse-point", d(PS, ["x"], {"x": []}, point=0), "'point' must be a string"),
    ("parse-surrogate",
     '{"functor": {"kind": "powerset"}, "states": ["\\ud800"], "structure": {}}',
     "'\\ud800' is a lone UTF-16 surrogate"),
    # the first bad payload in document order wins, then the point, then violations
    ("parse-first-bad-payload", d(PS, ["x", "y"], {"y": 1, "x": "x"}, point=3),
     "successors of 'y' must be a list of strings"),
    ("parse-payload-before-violations", d(RAT, ["x"], {"x": {"x": "0"}, "y": {"x": "q"}}),
     "weight for 'y' must be a string n or n/d with d > 0, got 'q'"),
    ("parse-point-before-violations", d(PS, ["x", "x"], {"x": ["z"]}, point=[]),
     "'point' must be a string"),
    ("several", d(RAT, ["a", "b", "a", "c"], {
        "a": {"b": "0", "zz": "1"},
        "b": {"q": "1/2", "a": "3", "p": "-1"},
        "ghost": {},
        "other": {"a": "2"},
    }, point="nowhere"),
     "duplicate-state: state 'a' listed twice; "
     "zero-weight-entry: state 'a': zero weight entries must be dropped; "
     "dangling-state: structure of 'b' references unknown state 'p'; "
     "dangling-state: structure of 'b' references unknown state 'q'; "
     "zero-weight-entry: state 'a': zero weight entries must be dropped; "
     "missing-structure: state 'c' has no structure; "
     "dangling-state: structure given for unknown state 'ghost'; "
     "dangling-state: structure given for unknown state 'other'; "
     "point-not-in-carrier: point 'nowhere' not a state"),
    ("several-dfa", d(DFA, ["p", "q", "r"], {
        "p": {"accepting": True, "next": {"b": "q"}},
        "q": {"accepting": False, "next": {"a": "x", "b": "y"}},
        "s": {"accepting": False, "next": {"a": "p", "b": "p"}},
    }, point="q"),
     "malformed-structure: state 'p': transition entries (('b', 'q'),) do not match "
     "alphabet ('a', 'b'); "
     "dangling-state: structure of 'q' references unknown state 'x'; "
     "dangling-state: structure of 'q' references unknown state 'y'; "
     "missing-structure: state 'r' has no structure; "
     "dangling-state: structure given for unknown state 's'"),
    ("several-labelled", d(LTS, ["u", "v", "v"], {
        "u": [["a", "v"], ["z", "u"], ["b", "w"]],
        "v": [["b", "t"], ["a", "s"]],
    }),
     "duplicate-state: state 'v' listed twice; "
     "malformed-structure: state 'u': unknown labels ['z']; "
     "dangling-state: structure of 'v' references unknown state 's'; "
     "dangling-state: structure of 'v' references unknown state 't'; "
     "dangling-state: structure of 'v' references unknown state 's'; "
     "dangling-state: structure of 'v' references unknown state 't'"),
]


# each list parameter missing, or not a list of strings: an object is not
# read as its keys, nor a string as its characters
ERROR_LINES += [
    (f"parse-functor-{field}-{name}",
     d(dict({"kind": kind}, **({} if name == "missing" else {field: value})), [], {}),
     f"bad {kind} functor: {field} must be a list of strings, got {value!r}")
    for kind, field in [("dfa", "alphabet"), ("labelled-powerset", "labels")]
    for name, value in [("missing", None), ("null", None), ("object", {"a": 1}),
                        ("number", 3), ("string", "ab"), ("number-entry", ["a", 1])]
]

# A repeated key in any object of a document: JSON would keep its last value.
ERROR_LINES += [
    ("duplicate-key-weighted",
     '{"functor": {"kind": "weighted", "monoid": "rational"}, "states": ["x"], '
     '"structure": {"x": {"x": "1", "x": "2"}}}',
     "duplicate key 'x'"),
    ("duplicate-key-structure",
     '{"functor": {"kind": "powerset"}, "states": ["x"], "structure": {"x": [], "x": ["x"]}}',
     "duplicate key 'x'"),
    ("duplicate-key-dfa-next",
     '{"functor": {"kind": "dfa", "alphabet": ["a", "b"]}, "states": ["s"], '
     '"structure": {"s": {"accepting": true, "next": {"a": "s", "b": "s", "a": "s"}}}}',
     "duplicate key 'a'"),
    ("duplicate-key-dfa-accepting",
     '{"functor": {"kind": "dfa", "alphabet": ["a"]}, "states": ["s"], '
     '"structure": {"s": {"accepting": true, "next": {"a": "s"}, "accepting": false}}}',
     "duplicate key 'accepting'"),
    ("duplicate-key-functor",
     '{"functor": {"kind": "dfa", "alphabet": ["a"], "alphabet": ["b"]}, '
     '"states": [], "structure": {}}',
     "duplicate key 'alphabet'"),
    ("duplicate-key-document",
     '{"functor": {"kind": "powerset"}, "states": ["x"], "structure": {}, "states": []}',
     "duplicate key 'states'"),
]

# A key that no reader reads: JSON would drop it without a word.
ERROR_LINES += [
    ("unknown-key-document", d(PS, ["x", "y"], {"x": ["y"], "y": ["x"]}, pointt="x"),
     "document has unknown key 'pointt'"),
    ("unknown-key-dfa-functor",
     d({"kind": "dfa", "alphabet": ["a"], "monoid": "natural"}, [], {}),
     "dfa functor has unknown key 'monoid'"),
    ("unknown-key-powerset-functor", d({"kind": "powerset", "labels": ["a"]}, [], {}),
     "powerset functor has unknown key 'labels'"),
    ("unknown-key-dfa-state",
     d(DFA, ["s"], {"s": {"accepting": True, "acceptng": False, "next": {"a": "s", "b": "s"}}}),
     "dfa structure of 's' has unknown key 'acceptng'"),
]


@pytest.mark.parametrize(
    "text, line", [case[1:] for case in ERROR_LINES], ids=[case[0] for case in ERROR_LINES]
)
def test_a_bad_document_gives_its_recorded_error_line(tmp_path, capsys, text, line):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert run_command(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


SYSTEM = d(PS, ["x", "y"], {"x": ["y"], "y": ["y"]})


@pytest.mark.parametrize("command, text, key", [
    ("check-hom", '{"map": {"x": "x", "y": "y", "x": "y"}}', "x"),
    ("check-hom", '{"map": {"x": "x", "y": "y"}, "map": {}}', "map"),
    ("quotient", '{"blocks": [["x"], ["y"]], "blocks": [["x", "y"]]}', "blocks"),
], ids=["morphism-map", "morphism", "partition"])
def test_a_repeated_key_in_a_morphism_or_partition_is_one_error_line(
    tmp_path, capsys, command, text, key
):
    assert run_on_system(tmp_path, command, text) == 2
    assert capsys.readouterr() == ("", f"error: duplicate key {key!r}\n")


@pytest.mark.parametrize("command, text, line", [
    ("check-hom", '{"map": {"x": "x", "y": "y"}, "mapp": {}}',
     "morphism document has unknown key 'mapp'"),
    ("quotient", '{"blocks": [["x"], ["y"]], "block": []}',
     "partition document has unknown key 'block'"),
], ids=["morphism", "partition"])
def test_an_unknown_key_in_a_morphism_or_partition_is_one_error_line(
    tmp_path, capsys, command, text, line
):
    assert run_on_system(tmp_path, command, text) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


def run_on_system(tmp_path, command: str, text: str) -> int:
    """The exit code of ``check-hom`` with the map ``text``, or of
    ``quotient`` with the partition ``text``, on :data:`SYSTEM`."""
    system, document = tmp_path / "system.json", tmp_path / "document.json"
    system.write_text(SYSTEM, encoding="utf-8")
    document.write_text(text, encoding="utf-8")
    if command == "check-hom":
        argv = ["check-hom", "--dom", str(system), "--cod", str(system), "--map", str(document)]
    else:
        argv = ["quotient", str(system), "--partition", str(document), "--out-dir", str(tmp_path)]
    return run_command(argv)


# -- the one-pass read against the constructor ---------------------------------

FAMILIES = [
    (DfaFunctor(("b", "a")), None),
    (PowersetFunctor(), None),
    (LabelledFunctor(("b", "a")), None),
    (WeightedFunctor("natural"), (1, 2, 3)),
    (WeightedFunctor("rational"), (Fraction(-1, 2), 1, Fraction(3, 4))),
    (MaybeFunctor(), None),
    (MaybeEdgesFunctor(), None),
]
# A JSON string, or a literal true, false, null or integer, in a payload's text.
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|true|false|null|-?[0-9]+')
REPLACEMENTS = ['"ghost"', '"0"', '"1/2"', '"-3"', '"2/4"', '"x"', '"b"', '""', "0", "null",
                "true", "[]", "{}", '["s0", "ghost"]']


CHANGES = ["duplicate a state", "drop a state", "add a state", "drop a structure",
           "add a structure", "move the point"] + 4 * ["change a payload token"]


def corrupted(data, doc: dict) -> dict:
    """``doc`` with one or two of ``CHANGES`` made, as drawn from ``data``."""
    states, structure = doc["states"], doc["structure"]
    draw = data.draw
    for _ in range(draw(st.integers(1, 2))):
        change = draw(st.sampled_from(CHANGES))
        if change == "duplicate a state" and states:
            states.insert(draw(st.integers(0, len(states))), draw(st.sampled_from(states)))
        elif change == "drop a state" and states:
            del states[draw(st.integers(0, len(states) - 1))]
        elif change == "add a state":
            states.append("ghost")
        elif change == "drop a structure" and structure:
            del structure[draw(st.sampled_from(sorted(structure)))]
        elif change == "add a structure" and structure:
            structure["stray"] = structure[draw(st.sampled_from(sorted(structure)))]
        elif change == "move the point":
            point = draw(st.sampled_from([None, "ghost"] + states[:1]))
            if point is None:
                doc.pop("point", None)
            else:
                doc["point"] = point
        elif change == "change a payload token" and structure:
            s = draw(st.sampled_from(sorted(structure)))
            text = json.dumps(structure[s])
            tokens = sorted(set(TOKEN.findall(text)))
            if tokens:
                text = text.replace(draw(st.sampled_from(tokens)),
                                    draw(st.sampled_from(REPLACEMENTS)))
            try:
                structure[s] = json.loads(text)
            except json.JSONDecodeError:  # a key replaced by a value that is not a string
                pass
    return doc


def constructed(text: str) -> Coalgebra:
    """The document's parts, each structure as its functor reads it, through
    the ``Coalgebra`` constructor."""
    doc = json.loads(text)
    spec = parse_functor(doc["functor"])
    carrier = set(doc["states"])
    structure = {s: spec.read(p, s, carrier)[0] for s, p in doc["structure"].items()}
    point = doc.get("point")
    if point is not None and not isinstance(point, str):
        raise ParseError(None, "'point' must be a string")
    return Coalgebra(spec, tuple(doc["states"]), structure, point)


def outcome(read, text):
    try:
        return "ok", read(text)
    except ParseError as exc:
        return "parse error", str(exc)
    except ValidationError as exc:
        return "invalid", exc.violations


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_parser_admits_exactly_what_the_constructor_accepts(data):
    spec, pool = data.draw(st.sampled_from(FAMILIES))
    n = data.draw(st.integers(1, 6))
    c = random_coalgebra(spec, n, data.draw(st.integers(0, 10**6)), pool,
                         data.draw(st.sampled_from([0.0, 0.3, 0.8])), data.draw(st.booleans()))
    doc = json.loads(serialize_coalgebra(c))
    if data.draw(st.booleans()):
        doc = corrupted(data, doc)
    text = json.dumps(doc)
    validated = []
    with pytest.MonkeyPatch.context() as patch:
        for cls in (MaybeFunctor, MaybeEdgesFunctor):  # the test functors join the kinds
            patch.setitem(KINDS, cls.kind, cls)
        expected = outcome(constructed, text)
        validate = core.validate_coalgebra
        patch.setattr(core, "validate_coalgebra", lambda c: validated.append(c) or validate(c))
        parsed = outcome(parse_coalgebra, text)
    assert parsed == expected
    if parsed[0] == "ok":
        assert validated == []  # admitted in one pass
        assert serialize_coalgebra(parsed[1]) == serialize_coalgebra(expected[1])


# -- the writers against json.dumps --------------------------------------------

# Every character: quotes, backslashes, controls, non-ASCII, astral and
# surrogates, and the empty id.
ids = st.text(st.characters(exclude_categories=()), max_size=4) | st.sampled_from(
    ["", '"', "\\", "\x00\n\t", "é ", "\U0001f600", "\ud800"]
)
labels = st.lists(ids, min_size=1, max_size=3, unique=True).map(tuple)


def reference_structure(spec, t, index):
    """What a document holds for t, from its edge form and the label order."""
    if isinstance(spec, (MaybeFunctor, MaybeEdgesFunctor)):
        return t.successor
    constant, edges = spec.split(t)
    order = sorted(edges, key=lambda e: (spec.labels.index(e[0]), index[e[1]]))
    if isinstance(spec, DfaFunctor):
        return {"accepting": constant, "next": {l: s for l, s, _ in edges}}
    if isinstance(spec, PowersetFunctor):
        return [s for _, s, _ in order]
    if isinstance(spec, LabelledFunctor):
        return [[l, s] for l, s, _ in order]
    return {s: str(w) for _, s, w in edges}


@st.composite
def coalgebras(draw):
    kind = draw(st.sampled_from(["dfa", "powerset", "labelled", "bag", "rational", "maybe",
                                 "maybe-edges"]))
    states = draw(st.lists(ids, unique=True, max_size=6))
    targets = st.sampled_from(states) if states else st.nothing()
    if kind == "dfa":
        spec = DfaFunctor(draw(labels))
        struct = st.builds(spec.struct, st.booleans(), st.fixed_dictionaries(
            {a: targets for a in spec.alphabet}))
    elif kind == "powerset":
        spec = PowersetFunctor()
        struct = st.builds(spec.struct, st.sets(targets))
    elif kind == "labelled":
        spec = LabelledFunctor(draw(labels))
        struct = st.builds(spec.struct, st.sets(st.tuples(st.sampled_from(spec.labels), targets)))
    elif kind in ("bag", "rational"):
        spec = WeightedFunctor("natural" if kind == "bag" else "rational")
        weights = st.integers(1, 10**20) if kind == "bag" else st.fractions().filter(bool)
        struct = st.builds(spec.struct, st.dictionaries(targets, weights))
    else:
        spec = MaybeFunctor() if kind == "maybe" else MaybeEdgesFunctor()
        struct = st.builds(MaybeStruct, st.none() | targets)
    structure = {s: draw(struct) for s in states}
    point = draw(st.none() | targets)
    return Coalgebra(spec, states, structure, point)


@settings(max_examples=300, deadline=None)
@given(coalgebras())
def test_coalgebra_documents_are_the_bytes_of_json_dumps(c):
    index = c.state_index()
    payload = {
        "functor": c.functor.payload(),
        "states": list(c.states),
        "structure": {s: reference_structure(c.functor, c.structure[s], index)
                      for s in c.states},
    }
    if c.point is not None:
        payload["point"] = c.point
    assert serialize_coalgebra(c) == reference_json(payload)


@settings(max_examples=200, deadline=None)
@given(st.data(), coalgebras())
def test_morphism_and_partition_documents_are_the_bytes_of_json_dumps(data, c):
    targets = st.sampled_from(c.states) if c.states else st.nothing()
    mapping = {s: data.draw(targets) for s in c.states}
    h = Morphism(c, c, mapping)
    assert serialize_morphism(h) == reference_json({"map": mapping})
    p = Partition.from_key(c.states, mapping.__getitem__)
    assert serialize_partition(p) == reference_json({"blocks": [list(b) for b in p.blocks]})
