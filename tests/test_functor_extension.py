"""A fifth functor defined only here runs through the whole library.

``MaybeFunctor`` is 1 + X: a state either halts or has exactly one
successor.  It is ``MaybeEdgesFunctor``, the same functor from its own parts
alone (tested in ``test_functor_hooks.py``), plus a hand-written
``pair_structure``.  Nothing in ``src/`` knows about it; entering it in
``functors.KINDS`` for each test, as the fixture below does, is all the
registration there is.  Behavioural equivalence for 1 + X is equality of
the distance to halting (or never halting).
"""

import copy
import json
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest

from coalgmin import (
    FunctorSpec,
    are_isomorphic,
    behavioural_classes,
    check_greatest_quotient,
    check_simple_subterminal,
    emit_dot,
    naive_refinement,
    parse_coalgebra,
    parse_partition,
    random_coalgebra,
    reachable_part,
    serialize_coalgebra,
    simple_quotient,
    tree_unravel,
    underlying,
    validate_coalgebra,
)
from coalgmin.cli import run_command
from coalgmin.errors import MalformedStructure, ParseError
from coalgmin.formats import canonical_json
from coalgmin.functors import KINDS
from coalgmin.oracles import kernel_pair_coalgebra
from conftest import renamed_copy


@dataclass(frozen=True)
class MaybeStruct:
    successor: Optional[str]


@dataclass(frozen=True)
class MaybeEdgesFunctor(FunctorSpec):
    """1 + X from its hooks alone: halt, or one unlabelled edge of weight 1."""

    kind = "maybe-edges"
    structure_type = MaybeStruct

    def check_structure(self, t):
        self.require_structure(t)
        if t.successor is not None and not isinstance(t.successor, str):
            raise MalformedStructure(f"successor must be a state id, got {t.successor!r}")

    def fmap(self, mapping, t):
        if t.successor is None:
            return t
        try:
            return MaybeStruct(mapping[t.successor])
        except KeyError:
            raise self._unmapped(mapping, (t.successor,)) from None

    def support(self, t):
        return frozenset() if t.successor is None else frozenset({t.successor})

    def split(self, t):
        return None, ([] if t.successor is None else [(None, t.successor, 1)])

    def join(self, constant, edges):
        return MaybeStruct(next((s for _, s, _ in edges), None))

    def write(self, t, index, quoted, newline):
        return "null" if t.successor is None else quoted[t.successor]

    def read(self, payload, state, carrier):
        if payload is not None and not isinstance(payload, str):
            raise ParseError(None, f"successor of {state!r} must be a string or null")
        return MaybeStruct(payload), payload is None or payload in carrier

    def node_shape(self, t):
        return "box" if t.successor is None else "circle"

    def random_structure(self, states, rng, pool, density):
        return MaybeStruct(rng.choice(states) if rng.random() < density else None)


class MaybeFunctor(MaybeEdgesFunctor):
    """1 + X: no successor (halt) or one successor, with its kernel pairs
    written by hand."""

    kind = "maybe"

    def pair_structure(self, tx, ty, kappa, index, pair_id):
        if tx.successor is None:
            return tx
        return MaybeStruct(pair_id(tx.successor, ty.successor))


@dataclass(frozen=True)
class TaggedMaybeFunctor(MaybeFunctor):
    """1 + X with a parameter: a dataclass functor declares its fields
    itself, and ``FunctorSpec`` must not take them for its own."""

    tag: str

    kind = "tagged-maybe"


@pytest.fixture(autouse=True)
def maybe_kind(monkeypatch):
    monkeypatch.setitem(KINDS, MaybeFunctor.kind, MaybeFunctor)


# a -> b -> c halts; d -> c; e loops; f halts
DOC = {
    "functor": {"kind": "maybe"},
    "states": ["a", "b", "c", "d", "e", "f"],
    "structure": {"a": "b", "b": "c", "c": None, "d": "c", "e": "e", "f": None},
    "point": "a",
}
TEXT = canonical_json(DOC)


def test_documents_round_trip_byte_exactly():
    c = parse_coalgebra(TEXT)
    assert c.point is not None
    assert c.functor == MaybeFunctor()
    assert c.structure["c"] == MaybeStruct(None)
    assert serialize_coalgebra(c) == TEXT


def test_parser_rejects_a_non_string_successor():
    bad = dict(DOC, structure=dict(DOC["structure"], a=1))
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(bad))


def test_minimize_command_matches_the_naive_refinement(tmp_path, capsys):
    path = tmp_path / "maybe.json"
    path.write_text(TEXT)
    assert run_command(["minimize", str(path), "--out-dir", str(tmp_path)]) == 0
    partition = parse_partition((tmp_path / "partition.json").read_text())
    c = parse_coalgebra(TEXT)
    assert partition == naive_refinement(c)
    assert partition.blocks == (("a",), ("b", "d"), ("c", "f"), ("e",))
    quotient = parse_coalgebra((tmp_path / "quotient.json").read_text())
    assert quotient.states == ("a", "b", "c", "e")


def test_reachable_part_and_tree_unravel():
    c = parse_coalgebra(TEXT)
    part, inclusion = reachable_part(c)
    assert part.states == ("a", "b", "c")
    assert inclusion.mapping == {"a": "a", "b": "b", "c": "c"}
    tree, covering = tree_unravel(c)
    assert tree.states == ("0", "1", "2")
    assert tree.structure["1"] == MaybeStruct("2")
    assert covering.mapping == {"0": "a", "1": "b", "2": "c"}


@pytest.mark.parametrize("pointed", [True, False])
def test_a_renamed_copy_is_found_isomorphic(pointed):
    c = parse_coalgebra(TEXT)
    if not pointed:
        c = underlying(c)
    copy, renaming = renamed_copy(c, 3)
    assert are_isomorphic(c, copy).mapping == renaming
    assert are_isomorphic(copy, c).mapping == {v: k for k, v in renaming.items()}


def test_emit_dot_uses_the_functor_shapes_and_edges():
    c = parse_coalgebra(TEXT)
    dot = emit_dot(c)
    assert '  "c" [shape=box];' in dot
    assert '  "a" [shape=circle];' in dot
    assert '  "a" -> "b";' in dot
    assert '  "e" -> "e";' in dot
    assert dot.count("->") == 1 + 4  # the point marker plus four edges


@pytest.mark.parametrize("seed", range(5))
def test_random_instances_validate_and_refine_like_the_oracle(seed):
    c = random_coalgebra(MaybeFunctor(), 30, seed, density=0.7, pointed=True)
    assert validate_coalgebra(c) == []
    assert behavioural_classes(c) == naive_refinement(c)
    again = random_coalgebra(MaybeFunctor(), 30, seed, density=0.7, pointed=True)
    assert serialize_coalgebra(again) == serialize_coalgebra(c)


def test_oracle_lab_checks_pass():
    c = parse_coalgebra(TEXT)
    assert check_greatest_quotient(c).passed
    pool = [random_coalgebra(MaybeFunctor(), n, n, density=0.5) for n in range(1, 4)]
    report = check_simple_subterminal(c, pool)
    assert report.passed
    assert report.witnesses  # c is not simple: a second incoming hom is shown
    quotient, _, _ = simple_quotient(c)
    assert check_simple_subterminal(quotient, pool).passed
    # the kernel pair's projections are checked homomorphisms on construction
    kernel, pr1, pr2 = kernel_pair_coalgebra(c)
    assert kernel.structure["b|d"] == MaybeStruct("c|c")
    assert pr1.mapping != pr2.mapping


@pytest.mark.parametrize("spec", [MaybeEdgesFunctor(), MaybeFunctor(), TaggedMaybeFunctor("t")],
                         ids=["maybe-edges", "maybe", "tagged"])
def test_dataclass_functors_pickle_and_keep_dataclass_semantics(spec):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(spec, protocol)) == spec
    assert copy.deepcopy(spec) == spec
    assert hash(copy.deepcopy(spec)) == hash(spec)


def test_a_dataclass_functor_field_takes_part_in_equality_and_repr():
    assert TaggedMaybeFunctor("t") == TaggedMaybeFunctor(tag="t") != TaggedMaybeFunctor("u")
    assert repr(TaggedMaybeFunctor("t")) == "TaggedMaybeFunctor(tag='t')"
    assert pickle.loads(pickle.dumps(TaggedMaybeFunctor("t"))).tag == "t"
    with pytest.raises(AttributeError):
        TaggedMaybeFunctor("t").tag = "u"
