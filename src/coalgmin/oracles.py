"""Brute-force oracles and property checks over small instances.

Everything here exists to cross-examine the production algorithms, so it is
deliberately naive and independent of them:

- homomorphism enumeration, a lazy backtracking search that never calls
  the reachability or refinement code; its maps keep the point when both
  coalgebras are pointed, and the unpointed checks pass ``underlying``
  coalgebras;
- the enumeration of pointed subcoalgebras (against ``reachable_part``) and
  of compatible partitions (against ``simple_quotient``);
- ``naive_refinement``, the global-round fixpoint, and the bounded language
  of automaton states, two more references for behavioural equivalence;
- the ``check_*`` functions, which verify universal properties (least
  subobject, greatest quotient, functoriality of minimization, closure under
  quotients) by exhaustive inspection, reporting witnesses instead of
  relying on the theory.

The enumerations are exponential, so each has a fixed bound.  Carriers
larger than ``SUBCOALGEBRA_BOUND`` or ``PARTITION_BOUND`` raise
``OracleBoundExceeded``; the homomorphism search raises
``SearchBoundExceeded`` past ``HOM_SEARCH_STATE_BOUND`` domain states or
``HOM_SEARCH_BUDGET`` candidate assignments.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    Coalgebra,
    Morphism,
    Partition,
    _derived_morphism,
    check_homomorphism,
    apply_partition_quotient,
    require_homomorphism,
    underlying,
)
from .errors import NotPointed, OracleBoundExceeded, SearchBoundExceeded, SpecMismatch, WrongFunctor
from .formats import serialize_coalgebra
from .functors import DfaFunctor, FunctorSpec
from .quotient import behavioural_classes, is_simple, simple_quotient
from .reachability import is_reachable, reachable_part

SUBCOALGEBRA_BOUND = 12
PARTITION_BOUND = 8
HOM_SEARCH_STATE_BOUND = 12
HOM_SEARCH_BUDGET = 1_000_000  # candidate assignments tried by one search


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check: empty failures means the check passed."""

    name: str
    instances: int
    failures: tuple[tuple[str, str], ...]
    witnesses: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        extra = ""
        if self.failures:
            digest, witness = self.failures[0]
            extra = f" first-failure={digest}:{witness}"
        return f"{status} {self.name} instances={self.instances}{extra}"


def stable_digest(c: Coalgebra) -> str:
    """Content hash of a coalgebra, stable across runs and platforms.

    Hashes the canonical document form rather than reprs, since set reprs
    depend on the interpreter's hash seed.
    """
    return hashlib.sha256(serialize_coalgebra(c).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Homomorphism enumeration
# ---------------------------------------------------------------------------


def enumerate_homomorphisms(a: Coalgebra, b: Coalgebra) -> Iterator[Morphism]:
    """Every homomorphism a -> b, found lazily by pruned backtracking.

    When both coalgebras are pointed the maps preserve the point; when
    neither is, they need not; one pointed and one unpointed raise
    SpecMismatch.  The functors, the points and the state bound are checked
    at the call; the candidate budget is spent, and may run out, while the
    maps are drawn.  Maps are extended
    state by state in carrier order; as soon as a state and all its
    successors are assigned, the homomorphism equation at that state is
    checked, cutting the dead branch immediately.  The maps come in
    lexicographic order of codomain carrier positions.  Each map is built
    unchecked: the search maps every state of ``a`` into ``b`` and checks
    the law at every state itself, so a check of the result would only
    repeat it.  This function deliberately never consults the reachability
    or refinement algorithms.
    """
    if a.functor != b.functor:
        raise SpecMismatch("cannot search homomorphisms across functors")
    if (a.point is None) != (b.point is None):
        raise SpecMismatch("cannot search homomorphisms between pointed and unpointed coalgebras")
    if len(a.states) > HOM_SEARCH_STATE_BOUND:
        raise SearchBoundExceeded(
            f"domain has {len(a.states)} states, bound is {HOM_SEARCH_STATE_BOUND}"
        )

    spec = a.functor
    order = a.states
    needed = {
        z: frozenset({z} | spec.support(a.structure[z])) for z in order
    }
    touched: dict[str, list[str]] = {s: [] for s in order}
    for z in order:
        for s in needed[z]:
            touched[s].append(z)
    remaining = {z: len(needed[z]) for z in order}

    candidates_by_state = {x: (b.point,) if x == a.point else b.states for x in order}

    budget = HOM_SEARCH_BUDGET
    mapping: dict[str, str] = {}

    def law_holds(z: str) -> bool:
        return spec.fmap(mapping, a.structure[z]) == b.structure[mapping[z]]

    def extend(i: int) -> Iterator[Morphism]:
        nonlocal budget
        if i == len(order):
            yield _derived_morphism(a, b, dict(mapping))
            return
        x = order[i]
        for y in candidates_by_state[x]:
            budget -= 1
            if budget < 0:
                raise SearchBoundExceeded(
                    f"homomorphism search exceeded {HOM_SEARCH_BUDGET} candidates"
                )
            mapping[x] = y
            completed = []
            ok = True
            for z in touched[x]:
                remaining[z] -= 1
                completed.append(z)
                if remaining[z] == 0 and not law_holds(z):
                    ok = False
                    break
            if ok:
                yield from extend(i + 1)
            for z in completed:
                remaining[z] += 1
            del mapping[x]

    return extend(0)


# ---------------------------------------------------------------------------
# Subcoalgebras and quotients by exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_pointed_subcoalgebras(c: Coalgebra) -> list[tuple[str, ...]]:
    """All carriers of pointed subcoalgebras, exhaustively.

    A subset qualifies when it contains the point and is closed under
    successor support.  Subsets are reported in ascending bitmask order over
    the carrier, each as a tuple in carrier order.
    """
    if c.point is None:
        raise NotPointed("pointed subcoalgebras need a pointed coalgebra")
    n = len(c.states)
    if n > SUBCOALGEBRA_BOUND:
        raise OracleBoundExceeded(
            f"carrier has {n} states, oracle bound is {SUBCOALGEBRA_BOUND}"
        )
    spec = c.functor
    supports = {s: spec.support(c.structure[s]) for s in c.states}
    point_bit = c.states.index(c.point)
    out = []
    for mask in range(1 << n):
        if not mask >> point_bit & 1:
            continue
        subset = frozenset(s for i, s in enumerate(c.states) if mask >> i & 1)
        if all(supports[s] <= subset for s in subset):
            out.append(tuple(s for s in c.states if s in subset))
    return out


def partition_compatible(c: Coalgebra, p: Partition) -> Optional[tuple]:
    """None if p induces a quotient coalgebra of the validated c, else a
    witness (block, x, y)."""
    kappa = p.representative_map()
    spec = c.functor
    for block in p.blocks:
        first = spec.fmap(kappa, c.structure[block[0]])
        for x in block[1:]:
            if spec.fmap(kappa, c.structure[x]) != first:
                return (block, block[0], x)
    return None


def enumerate_compatible_partitions(c: Coalgebra) -> list[Partition]:
    """Every partition of the carrier that induces a quotient coalgebra.

    Partitions are generated by restricted growth strings over the carrier
    order, so the output order is deterministic.  Bell-number growth makes
    this an oracle for small instances only.
    """
    n = len(c.states)
    if n > PARTITION_BOUND:
        raise OracleBoundExceeded(f"carrier has {n} states, oracle bound is {PARTITION_BOUND}")
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


# ---------------------------------------------------------------------------
# Naive partition refinement and the automaton language oracle
# ---------------------------------------------------------------------------


def naive_refinement(c: Coalgebra) -> Partition:
    """Behavioural classes by global refinement rounds, the reference for
    the worklist refinement behind ``behavioural_classes``.

    Every round maps all states' structures to block representatives and
    splits each block by the results, until a round changes nothing.  A
    chain needing n rounds costs n**2 signature evaluations.
    """
    if not c.states:
        return Partition(())
    spec = c.functor
    partition = Partition.of([c.states])
    for _ in range(len(c.states)):
        kappa = partition.representative_map()
        signature = {x: spec.fmap(kappa, c.structure[x]) for x in c.states}
        refined = Partition.of(
            group
            for block in partition.blocks
            for group in _split(block, signature)
        )
        if refined == partition:
            break
        partition = refined
    return partition


def _split(block: tuple[str, ...], signature) -> list[list[str]]:
    groups: dict[object, list[str]] = {}
    for x in block:
        groups.setdefault(signature[x], []).append(x)
    return list(groups.values())


def dfa_language_oracle(c: Coalgebra, max_len: int) -> dict[str, frozenset[str]]:
    """Accepted words of every state up to a length bound, by direct induction.

    This is an independent ground truth for behavioural equivalence on
    deterministic automata: two states merged by refinement must accept the
    same bounded language, and split states must differ on some short word.
    """
    spec = c.functor
    if not isinstance(spec, DfaFunctor):
        raise WrongFunctor("language oracle only applies to deterministic automata")
    accepted: dict[str, set[str]] = {s: set() for s in c.states}
    # words of length k accepted from x, built back to front over the moves
    layer = {
        s: ({""} if c.structure[s].accepting else set()) for s in c.states
    }
    for s in c.states:
        accepted[s] |= layer[s]
    for _ in range(max_len):
        layer = {
            s: {
                sym + w
                for sym, tgt in c.structure[s].moves
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


# ---------------------------------------------------------------------------
# Kernel-pair coalgebra of the behavioural partition
# ---------------------------------------------------------------------------


def _pair_id(x: str, y: str) -> str:
    return f"{x}|{y}"


def kernel_pair_coalgebra(c: Coalgebra) -> Optional[tuple[Coalgebra, Morphism, Morphism]]:
    """The behavioural-equivalence relation as a coalgebra with projections.

    For functors preserving weak kernel pairs the relation carries a
    structure whose projections are homomorphisms; when the relation is not
    the diagonal they are two distinct morphisms into c, witnessing that a
    non-simple coalgebra is not subterminal.  Rational weights are excluded:
    cancellation breaks the construction.
    """
    spec = c.functor
    if not spec.preserves_weak_kernel_pairs:
        return None
    partition = behavioural_classes(c)
    kappa = partition.representative_map()
    pairs = [
        (x, y)
        for x in c.states
        for y in c.states
        if kappa[x] == kappa[y]
    ]
    index = c.state_index()
    structure = {}
    for x, y in pairs:
        structure[_pair_id(x, y)] = spec.pair_structure(
            c.structure[x], c.structure[y], kappa, index, _pair_id
        )
    carrier = tuple(_pair_id(x, y) for x, y in pairs)
    kernel = Coalgebra(spec, carrier, structure)
    pr1 = Morphism(kernel, c, {_pair_id(x, y): x for x, y in pairs})
    pr2 = Morphism(kernel, c, {_pair_id(x, y): y for x, y in pairs})
    require_homomorphism(pr1)
    require_homomorphism(pr2)
    return kernel, pr1, pr2


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------

_SMALL = 4  # instances up to this size get an extra enumeration cross-check


def check_minimal_iff_incoming_epi(c: Coalgebra, pool: Iterable[Coalgebra]) -> PropertyReport:
    """Reachability = every incoming pointed homomorphism is surjective.

    For reachable inputs, every pointed homomorphism from every pool member
    must be surjective.  For non-reachable inputs, the inclusion of the
    reachable part is recorded as the witnessing non-surjective morphism.
    """
    failures = []
    witnesses = []
    pool = list(pool)
    if is_reachable(c):
        for d in pool:
            for h in enumerate_homomorphisms(d, c):
                if not h.is_surjective():
                    failures.append(
                        (stable_digest(d), f"non-surjective hom {sorted(h.mapping.items())}")
                    )
    else:
        part, inclusion = reachable_part(c)
        if inclusion.is_surjective():
            failures.append((stable_digest(c), "reachable part covers a non-reachable input"))
        else:
            witnesses.append(
                f"inclusion of the reachable part ({len(part.states)} of "
                f"{len(c.states)} states) is not surjective"
            )
    return PropertyReport(
        "minimal-iff-incoming-epi", len(pool) or 1, tuple(failures), tuple(witnesses)
    )


def check_simple_subterminal(c: Coalgebra, pool: Iterable[Coalgebra]) -> PropertyReport:
    """Simplicity = at most one homomorphism from anywhere into c.

    The converse direction looks for two distinct morphisms into a non-simple
    c: first among its endomorphisms, then via the projections of the
    behavioural kernel pair.  For rational weights the converse is not a
    theorem (weights may cancel), so a missing witness is noted rather than
    counted as a failure.
    """
    failures = []
    witnesses = []
    pool = list(pool)
    if is_simple(c):
        for d in pool:
            n = len(list(enumerate_homomorphisms(underlying(d), underlying(c))))
            if n > 1:
                failures.append(
                    (stable_digest(d), f"{n} homomorphisms into a simple coalgebra")
                )
    else:
        endos = list(enumerate_homomorphisms(underlying(c), underlying(c)))
        if len(endos) >= 2:
            witnesses.append(f"{len(endos)} endomorphisms of a non-simple coalgebra")
        else:
            kernel = kernel_pair_coalgebra(c)
            if kernel is not None and kernel[1].mapping != kernel[2].mapping:
                witnesses.append(
                    "kernel-pair projections are two distinct incoming homomorphisms"
                )
            elif c.functor.preserves_weak_kernel_pairs:
                failures.append(
                    (stable_digest(c), "no second incoming homomorphism found")
                )
            else:
                witnesses.append(
                    "converse not applicable: functor does not preserve weak kernel pairs"
                )
    return PropertyReport(
        "simple-subterminal", len(pool) or 1, tuple(failures), tuple(witnesses)
    )


def _subcoalgebra_on(c: Coalgebra, states: tuple[str, ...]) -> Coalgebra:
    structure = {s: c.structure[s] for s in states}
    return Coalgebra(c.functor, states, structure, c.point)


def check_least_subobject(c: Coalgebra) -> PropertyReport:
    """The reachable part embeds uniquely into every pointed subcoalgebra."""
    part, inclusion = reachable_part(c)
    failures = []
    count = 0
    for states in enumerate_pointed_subcoalgebras(c):
        count += 1
        sub = _subcoalgebra_on(c, states)
        if not set(part.states) <= set(states):
            failures.append(
                (stable_digest(sub), "reachable part escapes a pointed subcoalgebra")
            )
            continue
        mediating = Morphism(part, sub, {s: s for s in part.states})
        if not check_homomorphism(mediating):
            failures.append((stable_digest(sub), "forced mediating map is not a hom"))
            continue
        # uniqueness is forced pointwise by injectivity of the inclusion; on
        # tiny instances double-check by exhaustive search anyway
        if len(part.states) <= _SMALL:
            matching = [
                h
                for h in enumerate_homomorphisms(part, sub)
                if all(h.mapping[s] == s for s in part.states)
            ]
            if len(matching) != 1:
                failures.append(
                    (stable_digest(sub), f"{len(matching)} mediating homomorphisms")
                )
    return PropertyReport("least-subobject", count, tuple(failures))


def check_greatest_quotient(c: Coalgebra) -> PropertyReport:
    """Every quotient factors uniquely through the simple quotient."""
    quotient, projection, _ = simple_quotient(c)
    failures = []
    count = 0
    for partition in enumerate_compatible_partitions(c):
        count += 1
        d, e_prime = apply_partition_quotient(c, partition)
        u_map: dict[str, str] = {}
        conflict = None
        for x in c.states:
            source, target = e_prime.mapping[x], projection.mapping[x]
            if u_map.setdefault(source, target) != target:
                conflict = x
                break
        if conflict is not None:
            failures.append(
                (stable_digest(d), f"no mediating map: conflict at {conflict!r}")
            )
            continue
        mediating = Morphism(d, quotient, u_map)
        if not check_homomorphism(mediating):
            failures.append((stable_digest(d), "forced mediating map is not a hom"))
            continue
        # uniqueness is forced because the quotient projection is surjective;
        # cross-check by enumeration on tiny instances
        if len(d.states) <= _SMALL:
            matching = [
                h
                for h in enumerate_homomorphisms(underlying(d), underlying(quotient))
                if all(
                    h.mapping[e_prime.mapping[x]] == projection.mapping[x]
                    for x in c.states
                )
            ]
            if len(matching) != 1:
                failures.append(
                    (stable_digest(d), f"{len(matching)} mediating homomorphisms")
                )
    return PropertyReport("greatest-quotient", count, tuple(failures))


def check_minimization_functorial(morphisms: Iterable[Morphism]) -> PropertyReport:
    """Pointed homs from reachable domains land in the codomain's reachable part.

    For every pointed homomorphism h: A -> B with A reachable there must be
    exactly one u: A -> reach(B) whose composite with the inclusion is h;
    since the inclusion is injective, u is h itself, corestricted.
    """
    failures = []
    morphisms = list(morphisms)  # kept alive, so the ids of their domains stay theirs
    reachable: dict[int, bool] = {}  # each distinct domain, by identity, checked once
    for h in morphisms:
        if id(h.dom) not in reachable:
            reachable[id(h.dom)] = is_reachable(h.dom)
        if not reachable[id(h.dom)]:
            failures.append((stable_digest(h.dom), "domain of the pair is not reachable"))
            continue
        part, _ = reachable_part(h.cod)
        inside = set(part.states)
        escaping = [x for x in h.dom.states if h.mapping[x] not in inside]
        if escaping:
            failures.append(
                (stable_digest(h.dom), f"image escapes the reachable part at {escaping[0]!r}")
            )
            continue
        mediating = Morphism(h.dom, part, h.mapping)
        if not check_homomorphism(mediating):
            failures.append((stable_digest(h.dom), "corestriction is not a homomorphism"))
    return PropertyReport("minimization-functorial", len(morphisms), tuple(failures))


def check_quotient_closure(c: Coalgebra) -> PropertyReport:
    """Quotients of reachable coalgebras stay reachable, functor permitting.

    For functors preserving inverse images a non-reachable quotient is a
    failure; for rational weights it is an expected cancellation effect and
    is recorded as a witness.
    """
    failures = []
    witnesses = []
    count = 0
    flagged = c.functor.preserves_inverse_images
    if not is_reachable(c):
        return PropertyReport(
            "quotient-closure", 0, ((stable_digest(c), "input is not reachable"),)
        )
    for partition in enumerate_compatible_partitions(c):
        count += 1
        q, _ = apply_partition_quotient(c, partition)
        if not is_reachable(q):
            blocks = ";".join(",".join(b) for b in partition.blocks)
            if flagged:
                failures.append((stable_digest(c), f"unreachable quotient via {blocks}"))
            else:
                witnesses.append(f"unreachable quotient via {blocks}")
    return PropertyReport(
        "quotient-closure", count, tuple(failures), tuple(witnesses)
    )


# ---------------------------------------------------------------------------
# Seeded instance generation
# ---------------------------------------------------------------------------


def random_coalgebra(
    spec: FunctorSpec,
    n_states: int,
    seed: int,
    weight_pool: Optional[Sequence] = None,
    density: float = 0.5,
    pointed: bool = False,
) -> Coalgebra:
    """A pseudo-random coalgebra, a pure function of all its arguments.

    The generator is seeded with a string derived from every parameter, so
    equal calls are byte-identical across processes and platforms.
    """
    if n_states < 0:
        raise ValueError("n_states must be nonnegative")
    pool = spec.random_pool(weight_pool)
    if pointed and n_states == 0:
        raise ValueError("a pointed coalgebra needs at least one state")
    token = f"{spec!r}|{n_states}|{seed}|{pool!r}|{density}|{pointed}"
    rng = random.Random(token)
    states = tuple(f"s{i}" for i in range(n_states))
    structure = {}
    for s in states:
        structure[s] = spec.random_structure(states, rng, pool, density)
    return Coalgebra(spec, states, structure, rng.choice(states) if pointed else None)
