"""Ready-made example systems used by the test corpus, docs, and suites.

Each builder returns a fresh value.  The JSON files under ``corpus/`` in the
repository are the serialized forms of exactly these systems; a test keeps
them in sync.
"""

from __future__ import annotations

from .core import Coalgebra
from .functors import (
    DfaFunctor,
    LabelledFunctor,
    NATURALS,
    PowersetFunctor,
    RATIONALS,
    WeightedFunctor,
)

DFA_AB = DfaFunctor(("a", "b"))
POWERSET = PowersetFunctor()
LABELLED_AB = LabelledFunctor(("a", "b"))
BAG = WeightedFunctor(NATURALS)
RATIONAL_WEIGHTS = WeightedFunctor(RATIONALS)


def dfa_no_trailing_b() -> Coalgebra:
    """Four-state DFA over {a,b}; q, p and s accept the words not ending in b."""
    f = DFA_AB
    return Coalgebra(
        f,
        ("q", "p", "s", "r"),
        {
            "q": f.struct(True, {"a": "p", "b": "r"}),
            "p": f.struct(True, {"a": "p", "b": "r"}),
            "s": f.struct(True, {"a": "q", "b": "r"}),
            "r": f.struct(False, {"a": "p", "b": "r"}),
        },
        "s",
    )


def dfa_merge_target() -> Coalgebra:
    """Codomain for the standard DFA morphism: q and p collapse to p_bar.

    Contains the extra state t outside the image, so the canonical morphism
    into it is neither injective nor surjective and factors properly.
    """
    f = DFA_AB
    return Coalgebra(
        f,
        ("t", "p_bar", "s", "r"),
        {
            "t": f.struct(False, {"a": "s", "b": "p_bar"}),
            "p_bar": f.struct(True, {"a": "p_bar", "b": "r"}),
            "s": f.struct(True, {"a": "p_bar", "b": "r"}),
            "r": f.struct(False, {"a": "p_bar", "b": "r"}),
        },
        "s",
    )


def dfa_merge_map() -> dict[str, str]:
    return {"q": "p_bar", "p": "p_bar", "s": "s", "r": "r"}


def dfa_merge_map_perturbed() -> dict[str, str]:
    """Same map with r redirected to s; not a homomorphism."""
    return {"q": "p_bar", "p": "p_bar", "s": "s", "r": "s"}


def ts_branching() -> Coalgebra:
    """Transition system where x and y have the same branching behaviour."""
    f = POWERSET
    return Coalgebra(
        f,
        ("x", "y", "z"),
        {
            "x": f.struct({"y", "z"}),
            "y": f.struct({"y", "z"}),
            "z": f.struct(()),
        },
        "x",
    )


def ts_branching_reduced() -> Coalgebra:
    """The two-state system ts_branching minimizes to, under fresh names."""
    f = POWERSET
    return Coalgebra(
        f,
        ("u", "v"),
        {"u": f.struct({"u", "v"}), "v": f.struct(())},
        "u",
    )


def weighted_pair_merge() -> Coalgebra:
    """Rational-weighted system whose two sinks merge; 4 and -7 sum to -3."""
    f = RATIONAL_WEIGHTS
    return Coalgebra(
        f,
        ("x", "y1", "y2"),
        {
            "x": f.struct({"y1": 4, "y2": -7}),
            "y1": f.struct({"y2": 5}),
            "y2": f.struct({"y2": 5}),
        },
        "x",
    )


def weighted_flow() -> Coalgebra:
    """Four-state rational-weighted system with a two-state quotient."""
    f = RATIONAL_WEIGHTS
    return Coalgebra(
        f,
        ("q", "p", "r", "s"),
        {
            "q": f.struct({"p": -2, "s": 3}),
            "p": f.struct({"q": 2, "r": 3}),
            "r": f.struct({"s": 1}),
            "s": f.struct({"q": 5}),
        },
    )


def weighted_flow_target() -> Coalgebra:
    f = RATIONAL_WEIGHTS
    return Coalgebra(
        f,
        ("q_bar", "s_bar"),
        {
            "q_bar": f.struct({"s_bar": 1}),
            "s_bar": f.struct({"q_bar": 5}),
        },
    )


def weighted_flow_map() -> dict[str, str]:
    return {"q": "q_bar", "r": "q_bar", "p": "s_bar", "s": "s_bar"}


def cancel_fork() -> Coalgebra:
    """Reachable system whose only quotient cancels its weights (3 - 3 = 0).

    Merging b1 and b2 leaves the point without outgoing transitions, so the
    quotient is no longer reachable.
    """
    f = RATIONAL_WEIGHTS
    return Coalgebra(
        f,
        ("a", "b1", "b2"),
        {
            "a": f.struct({"b1": 3, "b2": -3}),
            "b1": f.struct({}),
            "b2": f.struct({}),
        },
        "a",
    )


def cancel_fork_loops() -> Coalgebra:
    """Cancellation system whose minimization orders disagree.

    Simple-then-reachable yields one state with no transitions; the reverse
    order leaves a second, unreachable state behind.
    """
    f = RATIONAL_WEIGHTS
    return Coalgebra(
        f,
        ("a", "b1", "b2"),
        {
            "a": f.struct({"b1": 3, "b2": -3}),
            "b1": f.struct({"b1": 1}),
            "b2": f.struct({"b2": 1}),
        },
        "a",
    )


def ts_cycle_with_feeder() -> Coalgebra:
    """A pointed 2-cycle fed by two unreachable states, one of them looping."""
    f = POWERSET
    return Coalgebra(
        f,
        ("q0", "q1", "q2", "q3"),
        {
            "q0": f.struct({"q1"}),
            "q1": f.struct({"q0"}),
            "q2": f.struct({"q1", "q3"}),
            "q3": f.struct({"q3"}),
        },
        "q0",
    )


def ts_two_cycle() -> Coalgebra:
    f = POWERSET
    return Coalgebra(
        f,
        ("q0", "q1"),
        {"q0": f.struct({"q1"}), "q1": f.struct({"q0"})},
        "q0",
    )


def ts_single_loop() -> Coalgebra:
    f = POWERSET
    return Coalgebra(f, ("q0",), {"q0": f.struct({"q0"})}, "q0")


def bag_double_edge() -> Coalgebra:
    """Two states joined by a single weight-2 edge; unravels into siblings."""
    f = BAG
    return Coalgebra(
        f,
        ("a", "b"),
        {"a": f.struct({"b": 2}), "b": f.struct({})},
        "a",
    )


def bag_self_loop() -> Coalgebra:
    """One looping state; its unravelling would be an infinite chain."""
    f = BAG
    return Coalgebra(f, ("a",), {"a": f.struct({"a": 1})}, "a")


def labelled_handshake() -> Coalgebra:
    """Small labelled transition system with one merged pair of states."""
    f = LABELLED_AB
    return Coalgebra(
        f,
        ("g0", "g1", "g2", "g3"),
        {
            "g0": f.struct([("a", "g1"), ("b", "g2")]),
            "g1": f.struct([("a", "g3")]),
            "g2": f.struct([("a", "g3")]),
            "g3": f.struct([]),
        },
        "g0",
    )


ALL_SYSTEMS = {
    "dfa_no_trailing_b": dfa_no_trailing_b,
    "dfa_merge_target": dfa_merge_target,
    "ts_branching": ts_branching,
    "ts_branching_reduced": ts_branching_reduced,
    "weighted_pair_merge": weighted_pair_merge,
    "weighted_flow": weighted_flow,
    "weighted_flow_target": weighted_flow_target,
    "cancel_fork": cancel_fork,
    "cancel_fork_loops": cancel_fork_loops,
    "ts_cycle_with_feeder": ts_cycle_with_feeder,
    "ts_two_cycle": ts_two_cycle,
    "ts_single_loop": ts_single_loop,
    "bag_double_edge": bag_double_edge,
    "bag_self_loop": bag_self_loop,
    "labelled_handshake": labelled_handshake,
}

MORPHISM_DOCS = {
    "dfa_merge_map": dfa_merge_map,
    "dfa_merge_map_perturbed": dfa_merge_map_perturbed,
    "weighted_flow_map": weighted_flow_map,
}
