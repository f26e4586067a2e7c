"""coalgmin: minimization of finite state-based systems modelled as coalgebras.

The library computes reachable parts (breadth-first closure of the initial
state), simple quotients (functor-generic partition refinement), image
factorizations of homomorphisms, well-pointed modifications, and tree
unravellings, for four system types: deterministic automata, transition
systems, labelled transition systems, and monoid-weighted systems with exact
rational or natural weights.  A brute-force oracle lab verifies the library's
universal properties on small instances.

Every public name resolves on first use (PEP 562): ``import coalgmin`` loads
no submodule, and ``coalgmin.reachable_part`` loads only the modules that
reachability needs, not the oracle lab or the well-pointedness code.
"""

from importlib import import_module as _import_module

# Each public name, keyed to the module that defines it.
_HOME = {
    name: module
    for module, names in (
        ("core", "Coalgebra Factorization Morphism Partition Violation apply_partition_quotient "
                 "check_homomorphism compose_morphisms diagonal_fill_in factorize hom_failures "
                 "identity_morphism kernel_partition point_of underlying validate_coalgebra"),
        ("errors", "CoalgminError"),
        ("formats", "emit_dot parse_coalgebra parse_morphism parse_partition "
                    "serialize_coalgebra serialize_morphism serialize_partition"),
        ("functors", "DfaFunctor DfaStruct FunctorSpec LabelledFunctor PowersetFunctor Weight "
                     "WeightedFunctor"),
        ("oracles", "PropertyReport check_greatest_quotient check_least_subobject "
                    "check_minimal_iff_incoming_epi check_minimization_functorial "
                    "check_quotient_closure check_simple_subterminal dfa_language_oracle "
                    "enumerate_compatible_partitions enumerate_homomorphisms "
                    "enumerate_pointed_subcoalgebras naive_refinement random_coalgebra"),
        ("quotient", "behavioural_classes is_simple simple_quotient"),
        ("reachability", "is_reachable reachable_part"),
        ("wellpointed", "CommutationReport are_isomorphic commutation_check is_well_pointed "
                        "tree_unravel well_pointed_modification"),
    )
    for name in names.split()
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
