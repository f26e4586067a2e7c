"""coalgmin: minimization of finite state-based systems modelled as coalgebras.

The library computes reachable parts (breadth-first closure of the initial
state), simple quotients (functor-generic partition refinement), image
factorizations of homomorphisms, well-pointed modifications, and tree
unravellings, for four system types: deterministic automata, transition
systems, labelled transition systems, and monoid-weighted systems with exact
rational or natural weights.  A brute-force oracle lab verifies the library's
universal properties on small instances.
"""

from .core import (
    Coalgebra,
    Factorization,
    Morphism,
    Partition,
    Violation,
    apply_partition_quotient,
    check_homomorphism,
    compose_morphisms,
    diagonal_fill_in,
    factorize,
    hom_failures,
    identity_morphism,
    kernel_partition,
    point_of,
    underlying,
    validate_coalgebra,
)
from .errors import CoalgminError
from .formats import (
    emit_dot,
    parse_coalgebra,
    parse_morphism,
    parse_partition,
    serialize_coalgebra,
    serialize_morphism,
    serialize_partition,
)
from .functors import (
    DfaFunctor,
    DfaStruct,
    FunctorSpec,
    LabelledFunctor,
    LabelledStruct,
    PowersetFunctor,
    SetStruct,
    Weight,
    WeightedFunctor,
    WeightedStruct,
)
from .oracles import (
    PropertyReport,
    check_greatest_quotient,
    check_least_subobject,
    check_minimal_iff_incoming_epi,
    check_minimization_functorial,
    check_quotient_closure,
    check_simple_subterminal,
    dfa_language_oracle,
    enumerate_compatible_partitions,
    enumerate_homomorphisms,
    enumerate_pointed_subcoalgebras,
    naive_refinement,
    random_coalgebra,
)
from .quotient import behavioural_classes, is_simple, simple_quotient
from .reachability import is_reachable, reachable_part
from .wellpointed import (
    CommutationReport,
    are_isomorphic,
    commutation_check,
    is_well_pointed,
    tree_unravel,
    well_pointed_modification,
)

__version__ = "0.1.0"
