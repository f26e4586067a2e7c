"""Simple quotients via functor-generic partition refinement.

Refinement starts from the single-block partition and splits blocks whose
members have different signatures: a state's successor structure with every
target replaced by its block id.  The fixpoint is the coarsest partition whose
quotient carries a coalgebra structure, i.e. behavioural equivalence.

The refinement is a worklist algorithm in the style of Jacobs & Wißmann
(POPL 2023).  Only states whose successors changed block since their last
evaluation are evaluated again, and when a block splits, the largest part
keeps the block id.  A state therefore changes id at most log2(n) times, and
signature evaluations number at most n + m log2(n) for n states and m edges.
It needs nothing from the functor beyond ``fmap`` and ``support``; weighted
cancellation is handled because ``fmap`` sums weights and drops zeros.  The
global-round fixpoint it replaced is kept as ``oracles.naive_refinement``.

Each entry point validates its input once.  ``simple_quotient`` then builds
the quotient with ``core._quotient``, which checks every state's image
against its block's quotient structure but does not validate c again.
"""

from __future__ import annotations

from .core import Coalgebra, Morphism, Partition, _quotient, partition_compatible, require_valid
from .errors import OracleBoundExceeded, WrongFunctor
from .functors import DfaFunctor

DEFAULT_PARTITION_BOUND = 8


def _refinement_fixpoint(c: Coalgebra) -> Partition:
    if c.is_empty:
        return Partition(())
    spec = c.functor
    states = c.states
    structs = [c.struct_of(x) for x in states]
    index = c.state_index()
    preds: list[list[int]] = [[] for _ in states]
    for i, t in enumerate(structs):
        for y in spec.support(t):
            preds[index[y]].append(i)
    block_of = dict.fromkeys(states, 0)  # the state map signatures are taken under
    members = [set(range(len(states)))]
    # per block: the signature shared by its members outside the worklist
    shared: list[object] = [None]
    worklist = set(range(len(states)))
    while worklist:
        # Every signature of a round is taken before any block of it splits.
        touched: dict[int, list[tuple[object, int]]] = {}
        for i in worklist:
            touched.setdefault(block_of[states[i]], []).append(
                (spec.fmap(block_of, structs[i]), i)
            )
        worklist = set()
        for b, evaluated in touched.items():
            groups: dict[object, list[int]] = {}
            for sig, i in evaluated:
                groups.setdefault(sig, []).append(i)
            rest = len(members[b]) - len(evaluated)
            stay = groups.setdefault(shared[b], []) if rest else None
            keep, kept = max(
                groups.items(),
                key=lambda kg: len(kg[1]) + (rest if kg[1] is stay else 0),
            )
            if stay is not None and kept is not stay:
                # The unevaluated members move out.  They are no more than
                # the kept group, which was all evaluated, so listing them
                # costs no more than this round's evaluations did.
                stay.extend(members[b].difference(i for _, i in evaluated))
            shared[b] = keep
            for sig, group in groups.items():
                if group is kept:
                    continue
                members[b].difference_update(group)
                new = len(members)
                members.append(set(group))
                shared.append(sig)
                for i in group:
                    block_of[states[i]] = new
                    worklist.update(preds[i])
    return Partition.of([states[i] for i in m] for m in members)


def simple_quotient(c: Coalgebra) -> tuple[Coalgebra, Morphism, Partition]:
    """The greatest quotient of c: merge exactly the behaviourally equal states.

    Returns the quotient (pointed at the class of the point when c is
    pointed), the projection morphism,
    and the underlying partition.  Quotienting the result again is the
    identity up to state naming, since its partition is discrete.
    """
    require_valid(c)
    partition = _refinement_fixpoint(c)
    quotient, projection = _quotient(c, partition)
    return quotient, projection, partition


def behavioural_classes(c: Coalgebra) -> Partition:
    """The partition of the carrier into behavioural equivalence classes."""
    require_valid(c)
    return _refinement_fixpoint(c)


def is_simple(c: Coalgebra) -> bool:
    """True iff all states are pairwise behaviourally inequivalent."""
    return behavioural_classes(c).is_discrete


def enumerate_compatible_partitions(
    c: Coalgebra, bound: int = DEFAULT_PARTITION_BOUND
) -> list[Partition]:
    """Every partition of the carrier that induces a quotient coalgebra.

    Partitions are generated by restricted growth strings over the carrier
    order, so the output order is deterministic.  Bell-number growth makes
    this an oracle for small instances only.
    """
    require_valid(c)
    n = len(c.states)
    if n > bound:
        raise OracleBoundExceeded(f"carrier has {n} states, oracle bound is {bound}")
    out = []
    for assignment in _growth_strings(n):
        blocks: dict[int, list[str]] = {}
        for state, b in zip(c.states, assignment):
            blocks.setdefault(b, []).append(state)
        partition = Partition.of(blocks.values())
        if partition_compatible(c, partition) is None:
            out.append(partition)
    return out


def _growth_strings(n: int):
    """Restricted growth strings of length n, lexicographically."""
    if n == 0:
        yield ()
        return

    def extend(prefix: tuple[int, ...], used: int):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(used + 1):
            yield from extend(prefix + (b,), max(used, b + 1))

    yield from extend((0,), 1)


def dfa_language_oracle(c: Coalgebra, max_len: int) -> dict[str, frozenset[str]]:
    """Accepted words of every state up to a length bound, by direct induction.

    This is an independent ground truth for behavioural equivalence on
    deterministic automata: two states merged by refinement must accept the
    same bounded language, and split states must differ on some short word.
    """
    require_valid(c)
    spec = c.functor
    if not isinstance(spec, DfaFunctor):
        raise WrongFunctor("language oracle only applies to deterministic automata")
    accepted: dict[str, set[str]] = {s: set() for s in c.states}
    # words of length k accepted from x, built back to front over the moves
    layer = {
        s: ({""} if c.struct_of(s).accepting else set()) for s in c.states
    }
    for s in c.states:
        accepted[s] |= layer[s]
    for _ in range(max_len):
        layer = {
            s: {
                sym + w
                for sym, tgt in c.struct_of(s).moves
                for w in layer[tgt]
            }
            for s in c.states
        }
        for s in c.states:
            accepted[s] |= layer[s]
    return {s: frozenset(ws) for s, ws in accepted.items()}


def language_kernel(c: Coalgebra, max_len: int) -> Partition:
    """Partition of the carrier by equality of bounded accepted languages."""
    languages = dfa_language_oracle(c, max_len)
    return Partition.from_key(c.states, languages.__getitem__)
