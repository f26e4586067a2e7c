"""A functor that gives only its own parts gets every edge walk derived.

``MaybeEdgesFunctor`` of ``test_functor_extension.py`` is 1 + X, and it
defines only ``check_structure``, its action (``fmap``, ``support``), its
edge form (``split``/``join``), its document form (``read``/``write``),
``node_shape`` and ``random_structure``.  Refinement, unravelling and DOT output walk
``split`` and ``join`` themselves in the canonical edge order, and
``FunctorSpec`` derives kernel pairs from them.  The derived kernel pairs
must agree with ``MaybeFunctor``'s hand-written ``pair_structure``, and the
functor must run through the CLI and the oracle lab once the fixture below
enters it in ``functors.KINDS``, which is all the registration there is.
"""

import inspect
import json

import pytest

from coalgmin import (
    behavioural_classes,
    check_greatest_quotient,
    check_simple_subterminal,
    naive_refinement,
    parse_coalgebra,
    parse_morphism,
    parse_partition,
    random_coalgebra,
    serialize_coalgebra,
    simple_quotient,
    underlying,
    validate_coalgebra,
)
from coalgmin.cli import run_command
from coalgmin.errors import ParseError
from coalgmin.formats import canonical_json
from coalgmin.functors import KINDS
from coalgmin.oracles import kernel_pair_coalgebra
from conftest import renamed_copy
from test_functor_extension import DOC, MaybeEdgesFunctor, MaybeFunctor, MaybeStruct


@pytest.fixture(autouse=True)
def maybe_edges_kind(monkeypatch):
    monkeypatch.setitem(KINDS, MaybeEdgesFunctor.kind, MaybeEdgesFunctor)


HOOKS, MAYBE = MaybeEdgesFunctor(), MaybeFunctor()
TEXT = canonical_json(dict(DOC, functor={"kind": "maybe-edges"}))


def _pair_id(x, y):
    return f"{x}|{y}"


@pytest.mark.parametrize("seed", range(5))
def test_derived_methods_equal_the_hand_written_ones(seed):
    c = random_coalgebra(MAYBE, 40, seed, density=0.7)
    index = c.state_index()
    kappa = behavioural_classes(c).representative_map()
    for x in c.states:
        t = c.structure[x]
        for y in c.states:
            if kappa[x] == kappa[y]:
                ty = c.structure[y]
                assert HOOKS.pair_structure(t, ty, kappa, index, _pair_id) == (
                    MAYBE.pair_structure(t, ty, kappa, index, _pair_id)
                )


def test_the_functor_defines_only_its_own_parts():
    own = {name for name, v in vars(MaybeEdgesFunctor).items() if inspect.isfunction(v)}
    assert {name for name in own if not name.startswith("__")} == {
        "check_structure", "fmap", "support", "split", "join",
        "read", "write", "node_shape", "random_structure",
    }


def test_documents_round_trip_byte_exactly():
    c = parse_coalgebra(TEXT)
    assert c.functor == HOOKS
    assert serialize_coalgebra(c) == TEXT


def test_parser_rejects_a_non_string_successor():
    bad = json.loads(TEXT)
    bad["structure"]["a"] = 1
    with pytest.raises(ParseError):
        parse_coalgebra(json.dumps(bad))


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "maybe-edges.json"
    path.write_text(TEXT)
    return path


def test_minimize_command_matches_the_naive_refinement(doc, tmp_path):
    assert run_command(["minimize", str(doc), "--out-dir", str(tmp_path)]) == 0
    partition = parse_partition((tmp_path / "partition.json").read_text())
    assert partition == naive_refinement(parse_coalgebra(TEXT))
    assert partition.blocks == (("a",), ("b", "d"), ("c", "f"), ("e",))


def test_reach_command_keeps_the_point_chain(doc, tmp_path):
    assert run_command(["reach", str(doc), "--out-dir", str(tmp_path)]) == 0
    assert parse_coalgebra((tmp_path / "reachable.json").read_text()).states == ("a", "b", "c")


def test_unravel_command_names_tree_states_by_the_generic_rule(doc, tmp_path):
    assert run_command(["unravel", str(doc), "--out-dir", str(tmp_path)]) == 0
    tree = parse_coalgebra((tmp_path / "tree.json").read_text())
    assert tree.states == ("0", "1", "2")
    assert tree.structure["1"] == MaybeStruct("2")
    assert tree.structure["2"] == MaybeStruct(None)
    covering = json.loads((tmp_path / "covering.json").read_text())
    assert covering["map"] == {"0": "a", "1": "b", "2": "c"}


@pytest.mark.parametrize("pointed", [True, False])
def test_iso_command_finds_a_renamed_copy(doc, tmp_path, capsys, pointed):
    c = parse_coalgebra(TEXT)
    if not pointed:
        c = underlying(c)
        doc.write_text(serialize_coalgebra(c))
    copy, renaming = renamed_copy(c, 3)
    other = tmp_path / "copy.json"
    other.write_text(serialize_coalgebra(copy))
    argv = ["iso", str(doc), str(other)] + (["--pointed"] if pointed else [])
    assert run_command(argv) == 0
    assert parse_morphism(capsys.readouterr().out, c, copy).mapping == renaming


def test_dot_command_uses_the_derived_edges(doc, capsys):
    assert run_command(["dot", str(doc)]) == 0
    dot = capsys.readouterr().out
    assert '  "c" [shape=box];' in dot
    assert '  "a" -> "b";' in dot
    assert '  "e" -> "e";' in dot
    assert dot.count("->") == 1 + 4  # the point marker plus four edges


@pytest.mark.parametrize("seed", range(5))
def test_random_instances_validate_and_refine_like_the_oracle(seed):
    c = random_coalgebra(HOOKS, 30, seed, density=0.7, pointed=True)
    assert validate_coalgebra(c) == []
    assert behavioural_classes(c) == naive_refinement(c)


def test_oracle_lab_checks_pass():
    c = parse_coalgebra(TEXT)
    assert check_greatest_quotient(c).passed
    pool = [random_coalgebra(HOOKS, n, n, density=0.5) for n in range(1, 4)]
    report = check_simple_subterminal(c, pool)
    assert report.passed
    assert report.witnesses
    quotient, _, _ = simple_quotient(c)
    assert check_simple_subterminal(quotient, pool).passed
    kernel, pr1, pr2 = kernel_pair_coalgebra(c)
    assert kernel.structure["b|d"] == MaybeStruct("c|c")
    assert pr1.mapping != pr2.mapping
