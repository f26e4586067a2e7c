"""CLI surface: subcommands, exit codes, file outputs, determinism."""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from coalgmin import (
    Coalgebra,
    Partition,
    PowersetFunctor,
    WeightedFunctor,
    core,
    formats,
    random_coalgebra,
    serialize_coalgebra,
    suites,
)
from coalgmin.cli import build_parser, run_command
from coalgmin.wellpointed import UNRAVEL_STATE_BUDGET

from conftest import chains, corpus_path


def doc(name: str) -> str:
    return str(corpus_path(name))


def test_validate_ok_and_error(tmp_path, capsys):
    assert run_command(["validate", doc("dfa_no_trailing_b")]) == 0
    assert capsys.readouterr().out == "ok\n"
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "functor": {"kind": "powerset"},
                "states": ["x"],
                "structure": {"x": ["ghost"]},
            }
        )
    )
    assert run_command(["validate", str(bad)]) == 2
    assert "dangling-state" in capsys.readouterr().err


def test_validate_missing_file_is_exit_2(capsys):
    assert run_command(["validate", "no-such-file.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["directory", "not-utf8", "deep-nesting", "huge-integer", "out-dir-is-a-file"]
)
def test_unreadable_input_or_output_is_exit_2_with_one_error_line(tmp_path, capsys, case):
    target = tmp_path / "target"
    argv = ["validate", str(target)]
    if case == "directory":
        target.mkdir()
    elif case == "not-utf8":
        target.write_bytes(b'{"states": ["\xff"]}')
    elif case == "deep-nesting":
        target.write_text("[" * 100_000)
    elif case == "huge-integer":
        target.write_text('{"states": [' + "1" * 5000 + "]}")
    else:
        target.write_text("")
        argv = ["minimize", doc("ts_branching"), "--out-dir", str(target)]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_hom_true_false_and_pointed(capsys):
    argv = [
        "check-hom",
        "--dom", doc("dfa_no_trailing_b"),
        "--cod", doc("dfa_merge_target"),
        "--map", doc("dfa_merge_map"),
    ]
    assert run_command(argv) == 0
    assert capsys.readouterr().out == "ok\n"
    assert run_command(argv + ["--pointed"]) == 0
    capsys.readouterr()
    bad = argv[:-1] + [doc("dfa_merge_map_perturbed")]
    assert run_command(bad) == 1
    out = capsys.readouterr().out
    assert out.startswith("not a homomorphism")
    assert "r" in out.split(":")[1]


def test_factorize_writes_the_three_documents(tmp_path, capsys):
    assert run_command([
        "factorize",
        "--dom", doc("dfa_no_trailing_b"),
        "--cod", doc("dfa_merge_target"),
        "--map", doc("dfa_merge_map"),
        "--out-dir", str(tmp_path),
    ]) == 0
    e = json.loads((tmp_path / "e.json").read_text())
    image = json.loads((tmp_path / "image.json").read_text())
    m = json.loads((tmp_path / "m.json").read_text())
    assert image["states"] == ["p_bar", "s", "r"]
    assert e["map"]["q"] == "p_bar"
    assert m["map"] == {"p_bar": "p_bar", "s": "s", "r": "r"}


def test_reach_writes_reachable_and_embedding(tmp_path):
    assert run_command([
        "reach", doc("ts_cycle_with_feeder"), "--out-dir", str(tmp_path)
    ]) == 0
    reachable = json.loads((tmp_path / "reachable.json").read_text())
    embedding = json.loads((tmp_path / "embedding.json").read_text())
    assert reachable["states"] == ["q0", "q1"]
    assert embedding["map"] == {"q0": "q0", "q1": "q1"}


def test_reach_on_an_unpointed_document_is_exit_2(capsys):
    assert run_command(["reach", doc("weighted_flow")]) == 2
    assert "point" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reach", "wellpoint", "unravel"])
def test_a_command_that_needs_a_point_names_the_file(tmp_path, capsys, command):
    path = doc("weighted_flow")
    assert run_command([command, path, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: document has no point, and this command needs one\n"
    )


@pytest.mark.parametrize("command", ["validate", "dot", "check-hom"])
def test_a_lone_surrogate_id_is_exit_2_with_one_error_line(tmp_path, capsys, command):
    lone = "\ud800"
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "functor": {"kind": "powerset"},
        "states": [lone, "y"],
        "structure": {lone: ["y"], "y": []},
    }))
    argv = [command, str(system)]
    if command == "check-hom":
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"map": {lone: "y", "y": "y"}}))
        argv = [command, "--dom", str(system), "--cod", str(system), "--map", str(mapping)]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_hom_rejects_a_map_of_unknown_states(tmp_path, capsys):
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"map": {"q0": "q1", "q1": "q0", "ghost-state": "nowhere"}}))
    system = doc("ts_two_cycle")
    argv = ["check-hom", "--dom", system, "--cod", system, "--map", str(mapping)]
    assert run_command(argv) == 2
    assert capsys.readouterr() == (
        "", "error: dangling-state: map given for unknown state 'ghost-state'\n"
    )


def test_minimize_writes_quotient_projection_partition(tmp_path):
    assert run_command([
        "minimize", doc("weighted_pair_merge"), "--out-dir", str(tmp_path)
    ]) == 0
    quotient = json.loads((tmp_path / "quotient.json").read_text())
    partition = json.loads((tmp_path / "partition.json").read_text())
    assert quotient["structure"]["x"] == {"y1": "-3"}
    assert quotient["structure"]["y1"] == {"y1": "5"}
    assert partition["blocks"] == [["x"], ["y1", "y2"]]


@pytest.mark.parametrize(
    "argv, documents",
    [
        (["minimize", doc("weighted_pair_merge"), "--out-dir"], 1),
        (["reach", doc("dfa_no_trailing_b"), "--out-dir"], 1),
        (["wellpoint", doc("ts_cycle_with_feeder"), "--order", "both", "--out-dir"], 1),
        (["iso", doc("ts_branching"), doc("ts_branching")], 2),
        (["iso", doc("ts_branching"), doc("ts_branching"), "--pointed"], 2),
    ],
    ids=["minimize", "reach", "wellpoint-both", "iso", "iso-pointed"],
)
def test_a_document_is_validated_once(tmp_path, monkeypatch, capsys, argv, documents):
    # a valid document passes the one-pass check once and is not validated again
    admitted, validated = [], []
    admit, validate = formats.admit_coalgebra, core.validate_coalgebra
    monkeypatch.setattr(formats, "admit_coalgebra", lambda *a: admitted.append(a) or admit(*a))
    monkeypatch.setattr(core, "validate_coalgebra", lambda c: validated.append(c) or validate(c))
    if argv[-1] == "--out-dir":
        argv = argv + [str(tmp_path)]
    assert run_command(argv) == 0
    assert len(admitted) == documents
    assert validated == []


def test_the_parser_is_built_once_and_survives_a_bad_argv(tmp_path, capsys):
    assert build_parser() is build_parser()
    assert run_command(["validate", doc("dfa_no_trailing_b")]) == 0
    capsys.readouterr()
    assert run_command(["minimize", doc("weighted_pair_merge"), "--no-such-flag"]) == 2
    assert capsys.readouterr() == ("", "error: coalgmin: unrecognized arguments: --no-such-flag\n")
    assert run_command(["minimize", doc("weighted_pair_merge"), "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "partition.json").read_text())["blocks"] == [["x"], ["y1", "y2"]]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check-hom", "--map", "x"],
         "coalgmin check-hom: the following arguments are required: --dom, --cod"),
        (["wellpoint", doc("ts_branching"), "--order", "bad"],
         "coalgmin wellpoint: argument --order: invalid choice: 'bad' "
         "(choose from 'simple-first', 'reach-first', 'both')"),
        (["homs", doc("ts_branching"), doc("ts_branching"), "--max", "x"],
         "coalgmin homs: argument --max: invalid int value: 'x'"),
        ([], "coalgmin: the following arguments are required: command"),
        (["check-hom", "--dom", doc("dfa_no_trailing_b"), "--cod", doc("ts_branching"),
          "--map", {"map": {"q": "x", "p": "x", "s": "y", "r": "z"}}],
         "morphism endpoints use different functors"),
        (["homs", doc("dfa_no_trailing_b"), doc("ts_branching")],
         "cannot search homomorphisms across functors"),
        (["quotient", doc("cancel_fork"), "--partition", {"blocks": [[]]}], "empty block"),
        (["quotient", doc("cancel_fork"), "--partition", []],
         "partition document must be an object with 'blocks'"),
    ],
    ids=["missing-option", "bad-choice", "bad-int", "no-command", "map-across-functors",
         "homs-across-functors", "empty-block", "partition-not-an-object"],
)
def test_a_bad_argv_or_document_gives_one_error_line(tmp_path, capsys, argv, line):
    # a JSON value in argv stands for a file holding it
    document = tmp_path / "document.json"
    for value in argv:
        if not isinstance(value, str):
            document.write_text(json.dumps(value))
    argv = [value if isinstance(value, str) else str(document) for value in argv]
    assert run_command(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_quotient_by_explicit_partition(tmp_path):
    assert run_command([
        "quotient", doc("cancel_fork"),
        "--partition", doc("cancel_fork_partition"),
        "--out-dir", str(tmp_path),
    ]) == 0
    quotient = json.loads((tmp_path / "quotient.json").read_text())
    assert quotient["structure"]["a"] == {}
    assert quotient["states"] == ["a", "b1"]


def test_quotient_rejects_an_incompatible_partition(tmp_path, capsys):
    partition = tmp_path / "p.json"
    partition.write_text(json.dumps({"blocks": [["x", "z"], ["y"]]}))
    assert run_command([
        "quotient", doc("ts_branching"), "--partition", str(partition),
        "--out-dir", str(tmp_path),
    ]) == 2
    assert "different successor structures" in capsys.readouterr().err


@pytest.mark.parametrize("blocks", [["xz", "y"], [[1, 2]], [5]])
def test_quotient_rejects_a_partition_that_is_not_lists_of_strings(tmp_path, capsys, blocks):
    partition = tmp_path / "p.json"
    partition.write_text(json.dumps({"blocks": blocks}))
    assert run_command([
        "quotient", doc("ts_branching"), "--partition", str(partition),
        "--out-dir", str(tmp_path),
    ]) == 2
    assert "each partition block must be a list of strings" in capsys.readouterr().err
    assert not (tmp_path / "quotient.json").exists()


def test_wellpoint_orders_and_disagreement(tmp_path, capsys):
    assert run_command([
        "wellpoint", doc("cancel_fork_loops"), "--order", "both",
        "--out-dir", str(tmp_path),
    ]) == 1
    assert capsys.readouterr().out == "agree: false\n"
    simple_first = json.loads((tmp_path / "wellpoint-simple-first.json").read_text())
    reach_first = json.loads((tmp_path / "wellpoint-reach-first.json").read_text())
    assert simple_first["states"] == ["a"]
    assert sorted(reach_first["states"]) == ["a", "b1"]
    assert run_command([
        "wellpoint", doc("ts_cycle_with_feeder"), "--order", "both",
        "--out-dir", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out == "agree: true\n"


def test_wellpoint_defaults_to_simple_first(tmp_path, capsys):
    default, both = tmp_path / "default", tmp_path / "both"
    assert run_command(["wellpoint", doc("cancel_fork_loops"), "--out-dir", str(default)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in default.iterdir()) == ["wellpoint-simple-first.json"]
    assert run_command([
        "wellpoint", doc("cancel_fork_loops"), "--order", "both", "--out-dir", str(both),
    ]) == 1
    written = (default / "wellpoint-simple-first.json").read_bytes()
    assert written == (both / "wellpoint-simple-first.json").read_bytes()


def test_wellpoint_reach_first_writes_only_its_result(tmp_path, capsys):
    assert run_command([
        "wellpoint", doc("cancel_fork_loops"), "--order", "reach-first",
        "--out-dir", str(tmp_path),
    ]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wellpoint-reach-first.json"]


def test_iso_found_and_absent(capsys):
    assert run_command([
        "iso", doc("ts_branching"), doc("ts_branching"), "--pointed"
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["map"] == {"x": "x", "y": "y", "z": "z"}
    assert run_command([
        "iso", doc("ts_two_cycle"), doc("ts_single_loop"), "--pointed"
    ]) == 1
    assert "no isomorphism" in capsys.readouterr().err


def test_homs_lists_and_caps(capsys):
    assert run_command(["homs", doc("ts_branching"), doc("ts_branching")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert len(payload["maps"]) == 2
    assert run_command([
        "homs", doc("ts_branching"), doc("ts_branching"), "--max", "1"
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert len(payload["maps"]) == 1


def test_homs_keeps_only_the_listed_maps(tmp_path, capsys):
    # all 6 ** 6 maps of an edgeless system are homomorphisms; they are counted, not kept
    path = tmp_path / "edgeless.json"
    path.write_text(serialize_coalgebra(random_coalgebra(PowersetFunctor(), 6, 1, density=0.0)))
    tracemalloc.start()
    try:
        assert run_command(["homs", str(path), str(path), "--max", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"count": 6 ** 6, "maps": [{f"s{i}": "s0" for i in range(6)}]}
    assert peak < 4_000_000


def test_homs_rejects_a_negative_max(capsys):
    assert run_command([
        "homs", doc("ts_branching"), doc("ts_branching"), "--max", "-1"
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max" in captured.err


def test_unravel_writes_tree_and_covering(tmp_path, capsys):
    assert run_command([
        "unravel", doc("bag_double_edge"), "--out-dir", str(tmp_path)
    ]) == 0
    tree = json.loads((tmp_path / "tree.json").read_text())
    covering = json.loads((tmp_path / "covering.json").read_text())
    assert tree["states"] == ["0", "1", "2"]
    assert covering["map"] == {"0": "a", "1": "b", "2": "b"}
    assert run_command(["unravel", doc("bag_self_loop")]) == 2
    assert "cycle" in capsys.readouterr().err


def test_unravel_of_a_deep_chain_exits_0(tmp_path):
    c = chains(PowersetFunctor(), 1500)
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_coalgebra(Coalgebra(c.functor, c.states, c.structure, "c0_0")))
    assert run_command(["unravel", str(chain), "--out-dir", str(tmp_path)]) == 0
    # numbered tree states keep the output linear in the chain's length
    size = chain.stat().st_size
    assert (tmp_path / "tree.json").stat().st_size < size
    assert (tmp_path / "covering.json").stat().st_size < size
    tree = json.loads((tmp_path / "tree.json").read_text())
    assert tree["states"] == [str(i) for i in range(1500)]


def test_unravel_of_an_exponential_tree_exits_2_at_its_budget(tmp_path, capsys):
    # weight-2 bag edges double the tree at every step: 2**40 - 1 states
    spec = WeightedFunctor("natural")
    states = [f"s{i}" for i in range(40)]
    structure = {s: spec.struct({t: 2}) for s, t in zip(states, states[1:])}
    structure[states[-1]] = spec.struct({})
    chain = tmp_path / "chain.json"
    chain.write_text(serialize_coalgebra(Coalgebra(spec, states, structure, "s0")))
    start = time.perf_counter()
    assert run_command(["unravel", str(chain), "--out-dir", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 60
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(UNRAVEL_STATE_BUDGET) in err
    assert not (tmp_path / "out").exists()


def test_unravel_of_one_huge_natural_weight_exits_2_before_building(tmp_path, capsys):
    # one edge of weight 10**12 unravels to 10**12 + 1 states
    spec = WeightedFunctor("natural")
    structure = {"s0": spec.struct({"s1": 10**12}), "s1": spec.struct({})}
    document = tmp_path / "huge.json"
    document.write_text(serialize_coalgebra(Coalgebra(spec, ("s0", "s1"), structure, "s0")))
    start = time.perf_counter()
    assert run_command(["unravel", str(document), "--out-dir", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 60
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(UNRAVEL_STATE_BUDGET) in err
    assert not (tmp_path / "out").exists()


def test_dot_emits_to_stdout(capsys):
    assert run_command(["dot", doc("dfa_no_trailing_b")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph coalgebra {")
    assert out.endswith("}\n")


def test_props_runs_a_small_suite(capsys):
    assert run_command(["props", "--suite", "commutation", "--seeds", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok commutation[") == 4
    assert run_command(["props", "--suite", "nonsense", "--seeds", "1"]) == 2


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_props_refuses_fewer_than_one_seed(capsys, seeds):
    assert run_command(["props", "--suite", "commutation", "--seeds", seeds]) == 2
    assert capsys.readouterr() == ("", f"error: --seeds must be positive, got {seeds}\n")


def test_props_runs_every_suite_by_default(capsys):
    assert run_command(["props", "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("ok ") for line in lines)


def test_props_reports_a_failing_suite(monkeypatch, capsys):
    # a refinement that merges nothing is escaped by every coarser compatible partition
    monkeypatch.setattr(suites, "behavioural_classes", lambda c: Partition.discrete(c.states))
    assert run_command(["props", "--suite", "simple-oracle", "--seeds", "6"]) == 1
    escape = "a compatible partition escapes the refinement one"
    assert capsys.readouterr().out == (
        f"FAIL simple-oracle[dfa] instances=6 first-failure=7be8ecc55e72:{escape}\n"
        f"FAIL simple-oracle[powerset] instances=6 first-failure=94ad22674e2d:{escape}\n"
        f"FAIL simple-oracle[labelled] instances=6 first-failure=9fef41b43774:{escape}\n"
        "ok simple-oracle[bag] instances=6\n"
        f"FAIL simple-oracle[rational] instances=6 first-failure=4b545eaa0537:{escape}\n"
    )


def test_props_runs_the_dfa_language_suite(capsys):
    assert run_command(["props", "--suite", "dfa-language", "--seeds", "5"]) == 0
    assert capsys.readouterr().out == "ok dfa-language instances=5\n"


def test_reach_and_minimize_are_idempotent_on_their_own_outputs(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_command(["reach", doc("ts_cycle_with_feeder"), "--out-dir", str(first)]) == 0
    assert run_command(["reach", str(first / "reachable.json"), "--out-dir", str(second)]) == 0
    assert (first / "reachable.json").read_text() == (second / "reachable.json").read_text()
    assert run_command(["minimize", doc("weighted_pair_merge"), "--out-dir", str(first)]) == 0
    assert run_command(["minimize", str(first / "quotient.json"), "--out-dir", str(second)]) == 0
    assert (first / "quotient.json").read_text() == (second / "quotient.json").read_text()


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    # every command twice; stdout and files must match byte for byte
    runs = {
        "minimize": ["minimize", doc("dfa_no_trailing_b")],
        "reach": ["reach", doc("dfa_no_trailing_b")],
        "wellpoint": ["wellpoint", doc("ts_cycle_with_feeder"), "--order", "both"],
        "unravel": ["unravel", doc("labelled_handshake")],
    }
    for name, argv in runs.items():
        outputs = []
        for attempt in ("one", "two"):
            out_dir = tmp_path / name / attempt
            run_command(argv + ["--out-dir", str(out_dir)])
            capsys.readouterr()
            outputs.append(
                {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
            )
        assert outputs[0] == outputs[1], name
    for argv in (["dot", doc("weighted_flow")], ["homs", doc("ts_branching"), doc("ts_branching")]):
        first = run_command(argv), capsys.readouterr().out
        second = run_command(argv), capsys.readouterr().out
        assert first == second
