"""Seeded property suites cross-checking the algorithms against the oracles.

Each suite runs a family of instances (fixed seed list, small carriers) and
returns :class:`PropertyReport` values.  The same runners back the ``props``
CLI subcommand and the acceptance tests, so "the suite passes" means one
thing everywhere.

Suites that depend on the functor preserving inverse images (commutation of
the two minimization aspects, functoriality of reachability, closure of
reachability under quotients) run on the four functors flagged for it; the
rational-weighted functor appears there only through its designated
cancellation witnesses, where the violation is the expected result.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .core import Coalgebra, Morphism, apply_partition_quotient
from .errors import UnknownSuite
from .oracles import (
    PropertyReport,
    check_greatest_quotient,
    check_least_subobject,
    check_minimal_iff_incoming_epi,
    check_minimization_functorial,
    check_quotient_closure,
    check_simple_subterminal,
    enumerate_compatible_partitions,
    enumerate_pointed_subcoalgebras,
    language_kernel,
    random_coalgebra,
    stable_digest,
)
from .quotient import behavioural_classes, simple_quotient
from .reachability import reachable_part
from .wellpointed import commutation_check
from . import systems

FUNCTOR_FAMILIES: tuple[tuple[str, object, tuple | None], ...] = (
    ("dfa", systems.DFA_AB, None),
    ("powerset", systems.POWERSET, None),
    ("labelled", systems.LABELLED_AB, None),
    ("bag", systems.BAG, (1, 2)),
    ("rational", systems.RATIONAL_WEIGHTS, (3, -3)),
)

FLAGGED_FAMILIES = tuple(f for f in FUNCTOR_FAMILIES if f[1].preserves_inverse_images)

DEFAULT_SEEDS = tuple(range(200))
MAX_SEED_STATES = 6


def seeded_instance(spec, pool, seed: int) -> Coalgebra:
    """The fixed pointed instance for one (functor family, seed) pair."""
    n = 1 + seed % MAX_SEED_STATES
    density = (0.25, 0.5, 0.75)[seed % 3]
    return random_coalgebra(
        spec, n, seed, weight_pool=pool, density=density, pointed=True
    )


def _run_per_instance(
    name: str,
    seeds: Sequence[int],
    families: tuple,
    fn: Callable[[Coalgebra], Iterable[tuple[str, str]]],
) -> list[PropertyReport]:
    """One report per family in ``families``: the failures ``fn`` finds on
    the family's instance for each seed."""
    return [
        PropertyReport(
            f"{name}[{family}]",
            len(seeds),
            tuple(f for seed in seeds for f in fn(seeded_instance(spec, pool, seed))),
        )
        for family, spec, pool in families
    ]


def suite_reach_oracle(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """BFS reachable part = intersection of all pointed subcoalgebras."""

    def check(c):
        part, _ = reachable_part(c)
        subsets = enumerate_pointed_subcoalgebras(c)
        intersection = frozenset(c.states)
        for subset in subsets:
            intersection &= frozenset(subset)
        if frozenset(part.states) != intersection:
            yield (stable_digest(c), "bfs closure differs from the intersection oracle")

    return _run_per_instance("reach-oracle", seeds, FUNCTOR_FAMILIES, check)


def suite_simple_oracle(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """Refinement partition = coarsest compatible partition."""

    def check(c):
        partition = behavioural_classes(c)
        compatible = enumerate_compatible_partitions(c)
        if partition not in compatible:
            yield (stable_digest(c), "refinement partition is not compatible")
            return
        for other in compatible:
            if not other.refines(partition):
                yield (stable_digest(c), "a compatible partition escapes the refinement one")

    return _run_per_instance("simple-oracle", seeds, FUNCTOR_FAMILIES, check)


def suite_universality(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """Least-subobject and greatest-quotient mediating morphisms are unique."""

    def check(c):
        return check_least_subobject(c).failures + check_greatest_quotient(c).failures

    return _run_per_instance("universality", seeds, FUNCTOR_FAMILIES, check)


def suite_functoriality(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """Reachability is functorial on the inverse-image-preserving functors.

    The seeded homomorphism pairs are, per instance: the inclusion of the
    reachable part into the instance, and every compatible-partition quotient
    of the reachable part.
    """

    def check(c):
        part, inclusion = reachable_part(c)
        morphisms: list[Morphism] = [inclusion]
        for partition in enumerate_compatible_partitions(part):
            _, projection = apply_partition_quotient(part, partition)
            morphisms.append(projection)
        report = check_minimization_functorial(morphisms)
        yield from report.failures

    return _run_per_instance("functoriality", seeds, FLAGGED_FAMILIES, check)


def suite_commutation(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """Both minimization orders agree for inverse-image-preserving functors."""

    def check(c):
        report = commutation_check(c)
        if not report.agree:
            yield (stable_digest(c), "minimization orders disagree")

    return _run_per_instance("commutation", seeds, FLAGGED_FAMILIES, check)


def suite_quotient_closure(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """Quotients of reachable systems stay reachable on flagged functors.

    The rational cancellation witness is checked separately: there the suite
    requires that a violation IS found.
    """

    def check(c):
        part, _ = reachable_part(c)
        report = check_quotient_closure(part)
        yield from report.failures

    reports = _run_per_instance("quotient-closure", seeds, FLAGGED_FAMILIES, check)
    witness = systems.cancel_fork()
    report = check_quotient_closure(witness)
    failures = tuple(report.failures)
    if not report.witnesses:
        failures += (
            (stable_digest(witness), "expected cancellation violation was not found"),
        )
    reports.append(
        PropertyReport(
            "quotient-closure[rational-witness]", 1, failures, report.witnesses
        )
    )
    return reports


def suite_lemmas(seeds: Sequence[int] = tuple(range(25))) -> list[PropertyReport]:
    """Minimality lemma checks over the named corpus plus seeded pools."""
    corpus = [
        systems.dfa_no_trailing_b(),
        systems.ts_branching(),
        systems.ts_cycle_with_feeder(),
        systems.ts_two_cycle(),
        systems.ts_single_loop(),
        systems.weighted_pair_merge(),
        systems.cancel_fork(),
        systems.bag_double_edge(),
        systems.labelled_handshake(),
    ]

    def lemmas(c):
        return (
            check_minimal_iff_incoming_epi(c, [c, reachable_part(c)[0]]),
            check_simple_subterminal(c, [c, simple_quotient(c)[0]]),
        )

    def check(c):
        return [f for report in lemmas(c) for f in report.failures]

    reports = [report for c in corpus for report in lemmas(c)]
    return reports + _run_per_instance("lemmas", seeds, FUNCTOR_FAMILIES, check)


def suite_dfa_language(seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    """Refinement on automata agrees with the bounded language oracle."""
    failures = []
    for seed in seeds:
        c = seeded_instance(systems.DFA_AB, None, seed)
        if behavioural_classes(c) != language_kernel(c, 2 * len(c.states)):
            failures.append((stable_digest(c), "refinement differs from the language kernel"))
    return [PropertyReport("dfa-language", len(seeds), tuple(failures))]


SUITES: dict[str, Callable[[Sequence[int]], list[PropertyReport]]] = {
    "reach-oracle": suite_reach_oracle,
    "simple-oracle": suite_simple_oracle,
    "universality": suite_universality,
    "functoriality": suite_functoriality,
    "commutation": suite_commutation,
    "quotient-closure": suite_quotient_closure,
    "lemmas": suite_lemmas,
    "dfa-language": suite_dfa_language,
}


def run_suite(name: str, seeds: Sequence[int] = DEFAULT_SEEDS) -> list[PropertyReport]:
    if name == "all":
        reports = []
        for key in SUITES:
            reports.extend(SUITES[key](seeds))
        return reports
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seeds)
