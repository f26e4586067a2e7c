"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints one pass line when its assertions hold, so a verbose run
reads as a checklist.  Comparisons are exact; the seeded suites run the full
fixed seed list (200 per functor family, up to 6 states).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from coalgmin import (
    Coalgebra,
    Morphism,
    Partition,
    apply_partition_quotient,
    are_isomorphic,
    behavioural_classes,
    check_homomorphism,
    commutation_check,
    compose_morphisms,
    factorize,
    hom_failures,
    is_reachable,
    reachable_part,
    simple_quotient,
    tree_unravel,
    underlying,
    well_pointed_modification,
)
from coalgmin import systems
from coalgmin.cli import run_command
from coalgmin.errors import CyclicReachablePart
from coalgmin.oracles import enumerate_homomorphisms, language_kernel
from coalgmin.suites import (
    DEFAULT_SEEDS,
    suite_commutation,
    suite_functoriality,
    suite_lemmas,
    suite_quotient_closure,
    suite_reach_oracle,
    suite_simple_oracle,
    suite_universality,
)

from conftest import corpus_path


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS {text}")


def assert_all_passed(reports):
    failing = [r for r in reports if not r.passed]
    details = "; ".join(f"{r.name}: {r.failures[:2]}" for r in failing)
    assert not failing, details
    return reports


def test_criterion_01_dfa_morphism_check(capsys):
    argv = [
        "check-hom",
        "--dom", str(corpus_path("dfa_no_trailing_b")),
        "--cod", str(corpus_path("dfa_merge_target")),
        "--map", str(corpus_path("dfa_merge_map")),
    ]
    assert run_command(argv) == 0
    bad = argv[:-1] + [str(corpus_path("dfa_merge_map_perturbed"))]
    assert run_command(bad) == 1
    out = capsys.readouterr().out
    perturbed_line = out.strip().splitlines()[-1]
    assert "r" in perturbed_line.split(":")[1].split()
    dom = underlying(systems.dfa_no_trailing_b())
    cod = underlying(systems.dfa_merge_target())
    failures = hom_failures(Morphism(dom, cod, systems.dfa_merge_map_perturbed()))
    assert "r" in failures
    with capsys.disabled():
        report(1, "dfa morphism checks true; perturbed map fails with counterexample r")


def test_criterion_02_factorization_regression(capsys):
    dom = underlying(systems.dfa_no_trailing_b())
    cod = underlying(systems.dfa_merge_target())
    h = Morphism(dom, cod, systems.dfa_merge_map())
    fact = factorize(h)
    f = dom.functor
    assert fact.image.states == ("p_bar", "s", "r")
    assert fact.image.structure["p_bar"] == f.struct(True, {"a": "p_bar", "b": "r"})
    assert fact.image.structure["s"] == f.struct(True, {"a": "p_bar", "b": "r"})
    assert fact.image.structure["r"] == f.struct(False, {"a": "p_bar", "b": "r"})
    assert compose_morphisms(fact.m, fact.e).mapping == h.mapping
    assert fact.e.is_surjective()
    assert fact.m.is_injective()
    assert check_homomorphism(fact.e)
    assert check_homomorphism(fact.m)
    with capsys.disabled():
        report(2, "factorization through the image matches the expected system exactly")


def test_criterion_03_simple_quotient_regressions(capsys):
    ps_quotient, _, _ = simple_quotient(systems.ts_branching())
    ps = ps_quotient.functor
    expected_ps = Coalgebra(
        ps,
        ("x", "z"),
        {"x": ps.struct({"x", "z"}), "z": ps.struct(())},
        "x",
    )
    assert ps_quotient == expected_ps
    w_quotient, _, _ = simple_quotient(systems.weighted_pair_merge())
    wf = w_quotient.functor
    expected_w = Coalgebra(
        wf,
        ("x", "y1"),
        {"x": wf.struct({"y1": -3}), "y1": wf.struct({"y1": 5})},
        "x",
    )
    assert w_quotient == expected_w
    with capsys.disabled():
        report(3, "powerset and weighted quotients equal the expected two-state systems")


def test_criterion_04_dfa_language_cross_check(capsys):
    c = systems.dfa_no_trailing_b()
    classes = behavioural_classes(c)
    assert classes.blocks == (("p", "q", "s"), ("r",))
    assert classes == language_kernel(c, 8)
    with capsys.disabled():
        report(4, "behavioural classes match the bounded language kernel at length 8")


def test_criterion_05_cancellation_counterexample(capsys):
    c = systems.cancel_fork()
    assert is_reachable(c)
    quotient, projection = apply_partition_quotient(
        c, Partition.of([("a",), ("b1", "b2")])
    )
    assert check_homomorphism(projection)
    assert not is_reachable(quotient)
    with capsys.disabled():
        report(5, "weight cancellation produces an unreachable quotient of a reachable system")


def test_criterion_06_order_sensitivity(capsys):
    c = systems.cancel_fork_loops()
    outcome = commutation_check(c)
    assert not outcome.agree
    assert len(outcome.simple_first.states) == 1
    assert len(outcome.reach_first.states) == 2
    assert not is_reachable(outcome.reach_first)
    modification = well_pointed_modification(c)
    assert len(modification.states) == 1
    assert modification.structure[modification.point] == ()
    with capsys.disabled():
        report(6, "minimization orders disagree on the loop cancellation system")


def test_criterion_07_cycle_with_feeder_endpoints(capsys):
    c = systems.ts_cycle_with_feeder()
    part, inclusion = reachable_part(c)
    assert part.states == ("q0", "q1")
    assert are_isomorphic(part, systems.ts_two_cycle()) is not None
    assert check_homomorphism(inclusion)
    modification = well_pointed_modification(c)
    assert are_isomorphic(modification, systems.ts_single_loop()) is not None
    with capsys.disabled():
        report(7, "reachable part is the 2-cycle and the modification is the 1-state loop")


def test_criterion_08_tree_unravelling(capsys):
    tree, covering = tree_unravel(systems.bag_double_edge())
    assert len(tree.states) == 3
    assert covering.is_surjective()
    assert check_homomorphism(covering)
    automorphisms = [
        h
        for h in enumerate_homomorphisms(tree, tree)
        if h.is_bijective()
        and all(covering.mapping[h.mapping[s]] == covering.mapping[s] for s in tree.states)
    ]
    assert len(automorphisms) == 2  # identity and the sibling swap
    with pytest.raises(CyclicReachablePart):
        tree_unravel(systems.bag_self_loop())
    with capsys.disabled():
        report(8, "double edge unravels to the sibling tree; loops are rejected")


def test_criterion_09_oracle_equivalence_suites(capsys):
    assert len(DEFAULT_SEEDS) == 200
    assert_all_passed(suite_reach_oracle(DEFAULT_SEEDS))
    assert_all_passed(suite_simple_oracle(DEFAULT_SEEDS))
    assert_all_passed(suite_universality(DEFAULT_SEEDS))
    assert_all_passed(suite_functoriality(DEFAULT_SEEDS))
    assert_all_passed(suite_commutation(DEFAULT_SEEDS))
    assert_all_passed(suite_quotient_closure(DEFAULT_SEEDS))
    with capsys.disabled():
        report(9, "all 200-seed oracle equivalence suites passed with zero failures")


def test_criterion_10_lemma_suites_on_pools(capsys):
    from coalgmin.oracles import (
        check_minimal_iff_incoming_epi,
        check_simple_subterminal,
    )

    assert_all_passed(suite_lemmas())
    # mandated witnesses: a non-reachable input and a non-simple input
    non_reachable = check_minimal_iff_incoming_epi(
        systems.ts_cycle_with_feeder(), [systems.ts_cycle_with_feeder()]
    )
    assert non_reachable.passed and non_reachable.witnesses
    non_simple = check_simple_subterminal(
        underlying(systems.ts_branching()), [underlying(systems.ts_branching())]
    )
    assert non_simple.passed
    assert any("endomorphisms" in w for w in non_simple.witnesses)
    with capsys.disabled():
        report(10, "lemma pool checks passed, including the mandated failure witnesses")


CLI_FINGERPRINT = "d9fd16965d1088c05e54fee8782a2f789a00ccd47fbfe467a2b8dc50f191e5b9"


def test_criterion_11_cli_determinism(capsys):
    driver = Path(__file__).resolve().parent / "_determinism_driver.py"
    digests = []
    for hashseed in ("13", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        run = subprocess.run(
            [sys.executable, str(driver)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]
    # a change that alters output bytes on purpose updates this pin in CHANGES.md too
    assert digests[0] == CLI_FINGERPRINT
    with capsys.disabled():
        report(11, "every CLI command is byte-identical across independent runs")
