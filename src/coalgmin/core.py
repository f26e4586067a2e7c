"""Coalgebras, morphisms, image factorization, and partition quotients.

A coalgebra is a finite carrier of string state ids together with a total
structure map into the functor's successor structures, and optionally a point:
a distinguished initial state.  There is one type for both; a coalgebra is
pointed when its ``point`` is not None.  Values are immutable, built on
``functors.Value``; every operation here is pure.

The factorization system in use is (surjective, injective) on finite
carriers.  ``factorize`` splits a homomorphism through its image coalgebra and
``diagonal_fill_in`` realizes the unique-diagonal axiom on raw state maps.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import (
    DomainMismatch,
    IncompatiblePartition,
    InvalidMorphism,
    MalformedStructure,
    NotAHomomorphism,
    NotAPartition,
    NotInjective,
    NotSurjective,
    SpecMismatch,
    SquareDoesNotCommute,
    ValidationError,
    ZeroWeightEntry,
)
from .functors import FStructure, FunctorSpec, Value


class Violation(Value):
    _fields = ("code", "message", "witness")

    def __init__(self, code: str, message: str, witness: Optional[str] = None):
        self.__dict__.update(code=code, message=message, witness=witness)


class Coalgebra(Value):
    """A carrier plus one successor structure per state, and an optional point.

    Construction checks every invariant and raises ValidationError listing
    each violation (see :func:`validate_coalgebra`), so every value is a
    coalgebra.  The structure is stored as a read-only view of a private
    copy.
    """

    _fields = ("functor", "states", "structure", "point")

    def __init__(self, functor: FunctorSpec, states: Iterable[str],
                 structure: Mapping[str, FStructure], point: Optional[str] = None):
        if isinstance(structure, Mapping):
            structure = MappingProxyType(dict(structure))
        self.__dict__.update(functor=functor, states=tuple(states), structure=structure,
                             point=point)
        violations = validate_coalgebra(self)
        if violations:
            raise ValidationError(violations)

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; rebuild from a dict
        return type(self), (self.functor, self.states, dict(self.structure), self.point)

    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}


def _derived(functor, states: tuple, structure: Mapping, point=None) -> Coalgebra:
    """A coalgebra made from parts of valid ones by a construction that keeps
    validity, so it is not checked again.  ``structure`` passes to the
    result, which must be its only holder."""
    c = object.__new__(Coalgebra)
    c.__dict__.update(
        functor=functor, states=states, structure=MappingProxyType(structure), point=point
    )
    return c


def _derived_morphism(dom: Coalgebra, cod: Coalgebra, mapping: dict) -> Morphism:
    """A morphism whose map a construction made total into ``cod``, so it is
    not checked again.  ``mapping`` passes to the result, which must be its
    only holder."""
    h = object.__new__(Morphism)
    h.__dict__.update(dom=dom, cod=cod, mapping=MappingProxyType(mapping))
    return h


def underlying(c: Coalgebra) -> Coalgebra:
    """c without its point."""
    return _derived(c.functor, c.states, c.structure.copy())


def point_of(c: Coalgebra) -> Optional[str]:
    return c.point


def validate_coalgebra(c: Coalgebra) -> list[Violation]:
    """Check all invariants; return one violation per problem found."""
    out: list[Violation] = []
    seen: set[str] = set()
    for s in c.states:
        if not isinstance(s, str):
            out.append(Violation("non-string-id", f"state id {s!r} is not a string"))
        elif s in seen:
            out.append(Violation("duplicate-state", f"state {s!r} listed twice", s))
        else:
            seen.add(s)
    states = [s for s in c.states if isinstance(s, str)]
    carrier = frozenset(seen)
    structure = c.structure
    if not isinstance(structure, Mapping):
        out.append(Violation("malformed-structure", f"structure {structure!r} is not a mapping"))
        structure = {}
    for s in states:
        if s not in structure:
            out.append(Violation("missing-structure", f"state {s!r} has no structure", s))
            continue
        t = structure[s]
        try:
            c.functor.check_structure(t)
        except (MalformedStructure, SpecMismatch) as exc:
            code = "malformed-structure"
            if isinstance(exc, ZeroWeightEntry):
                code = "zero-weight-entry"
            out.append(Violation(code, f"state {s!r}: {exc}", s))
            continue
        for tgt in sorted(c.functor.support(t) - carrier, key=str):
            out.append(
                Violation(
                    "dangling-state",
                    f"structure of {s!r} references unknown state {tgt!r}",
                    tgt,
                )
            )
    for s in structure:
        if s not in carrier:
            out.append(
                Violation("dangling-state", f"structure given for unknown state {s!r}", s)
            )
    p = c.point
    if p is not None and not isinstance(p, str):
        out.append(Violation("non-string-id", f"point {p!r} is not a string"))
    elif p is not None and p not in carrier:
        out.append(Violation("point-not-in-carrier", f"point {p!r} not a state", p))
    return out


def admit_coalgebra(
    functor, states: tuple, carrier: set, structure: dict, point, admitted: bool
) -> Coalgebra:
    """The coalgebra of a document's parts, whose ids are all strings.
    ``admitted`` says that every structure passed its functor's rules with
    its targets in ``carrier``, the set of ``states``.  The carrier rules of
    :func:`validate_coalgebra` are then set operations: no duplicate ids, a
    structure for exactly the listed states, and the point in the carrier.
    When all hold, the coalgebra is built unchecked; otherwise the
    constructor words every violation.  ``structure`` passes to the result."""
    if (
        admitted
        and len(carrier) == len(states)
        and structure.keys() == carrier
        and (point is None or point in carrier)
    ):
        return _derived(functor, states, structure, point)
    return Coalgebra(functor, states, structure, point)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class Morphism(Value):
    """A total state map between two coalgebras of the same kind.

    Construction checks only that the map is a function dom -> cod, and
    reports every state where it is not, and every key that is not a state
    of dom, in one ValidationError; whether it is a homomorphism is the
    business of :func:`check_homomorphism`.  The map is stored as a
    read-only view of a private copy.
    """

    _fields = ("dom", "cod", "mapping")

    def __init__(self, dom: Coalgebra, cod: Coalgebra, mapping: Mapping[str, str]):
        if not isinstance(mapping, Mapping):
            raise ValidationError([Violation("malformed-map", f"{mapping!r} is not a map")])
        self.__dict__.update(dom=dom, cod=cod, mapping=MappingProxyType(dict(mapping)))
        cod_states = set(self.cod.states)
        violations = []
        for s in self.dom.states:
            if s not in self.mapping:
                violations.append(Violation("partial-map", f"map undefined at {s!r}", s))
            elif not isinstance(self.mapping[s], str) or self.mapping[s] not in cod_states:
                violations.append(
                    Violation("dangling-state", f"map sends {s!r} outside the codomain", s)
                )
        if violations or len(self.mapping) != len(self.dom.states):
            dom_states = set(self.dom.states)
            violations += [
                Violation("dangling-state", f"map given for unknown state {s!r}", s)
                for s in self.mapping
                if s not in dom_states
            ]
        if violations:
            raise ValidationError(violations)

    def __reduce__(self):  # as for Coalgebra
        return type(self), (self.dom, self.cod, dict(self.mapping))

    def __call__(self, state: str) -> str:
        return self.mapping[state]

    @property
    def pointed(self) -> bool:
        return self.dom.point is not None and self.cod.point is not None

    def is_surjective(self) -> bool:
        dom_states = self.dom.states
        return {self.mapping[s] for s in dom_states} == set(self.cod.states)

    def is_injective(self) -> bool:
        dom_states = self.dom.states
        return len({self.mapping[s] for s in dom_states}) == len(dom_states)

    def is_bijective(self) -> bool:
        return self.is_surjective() and self.is_injective()


def identity_morphism(c: Coalgebra) -> Morphism:
    return Morphism(c, c, {s: s for s in c.states})


def compose_morphisms(outer: Morphism, inner: Morphism) -> Morphism:
    """outer after inner; the codomain of ``inner`` must be ``outer``'s domain."""
    if inner.cod != outer.dom:
        raise DomainMismatch("codomain of inner morphism differs from outer domain")
    mapping = {s: outer.mapping[inner.mapping[s]] for s in inner.dom.states}
    return Morphism(inner.dom, outer.cod, mapping)


def hom_failures(h: Morphism) -> tuple[str, ...]:
    """States at which the homomorphism law fails, in carrier order.

    For pointed endpoints the point is reported first if it is not preserved.
    Empty result means h is a (pointed) homomorphism.
    """
    dom, cod = h.dom, h.cod
    if dom.functor != cod.functor:
        raise SpecMismatch("morphism endpoints use different functors")
    failures = []
    if h.pointed and h.mapping[h.dom.point] != h.cod.point:
        failures.append(h.dom.point)
    spec = dom.functor
    for x in dom.states:
        if spec.fmap(h.mapping, dom.structure[x]) != cod.structure[h.mapping[x]]:
            if x not in failures:
                failures.append(x)
    return tuple(failures)


def check_homomorphism(h: Morphism) -> bool:
    return not hom_failures(h)


def require_homomorphism(h: Morphism) -> Morphism:
    failures = hom_failures(h)
    if failures:
        raise NotAHomomorphism(failures[0])
    return h


# ---------------------------------------------------------------------------
# Diagonal fill-in on raw state maps
# ---------------------------------------------------------------------------


def diagonal_fill_in(
    e: Mapping[str, str],
    m: Mapping[str, str],
    f: Mapping[str, str],
    g: Mapping[str, str],
) -> dict[str, str]:
    """The unique d with m.d = g and d.e = f, for e surjective and m injective.

    The square g.e = m.f is over carriers A = keys(e) = keys(f),
    B = keys(g) and C = keys(m); d is defined on B by pulling any e-preimage
    back through f, which is forced because e is surjective and m injective.
    """
    a_states = set(e)
    if set(f) != a_states:
        raise InvalidMorphism("e and f must share their domain")
    b_states = set(g)
    if not set(e.values()) <= b_states:
        raise InvalidMorphism("e must land in the domain of g")
    if set(e.values()) != b_states:
        raise NotSurjective("left map of the fill-in square is not surjective")
    if len(set(m.values())) != len(m):
        raise NotInjective("bottom map of the fill-in square is not injective")
    if not set(f.values()) <= set(m):
        raise InvalidMorphism("f must land in the domain of m")
    for a in sorted(a_states):
        if g[e[a]] != m[f[a]]:
            raise SquareDoesNotCommute(a)
    # the square and m injective force f to be constant on e-fibres
    return {e[a]: f[a] for a in sorted(a_states)}


# ---------------------------------------------------------------------------
# Image factorization
# ---------------------------------------------------------------------------


class Factorization(Value):
    """h = m . e with e surjective onto the image and m injective."""

    _fields = ("e", "image", "m")

    def __init__(self, e: Morphism, image: Coalgebra, m: Morphism):
        self.__dict__.update(e=e, image=image, m=m)


def factorize(h: Morphism) -> Factorization:
    """Split a homomorphism through its image coalgebra.

    The image is the subcoalgebra of the codomain on the states h hits, in
    codomain carrier order.  Since h(x) has structure F h(c(x)), the image
    is closed under successors, and e and m are homomorphisms because h is.
    """
    require_homomorphism(h)
    dom, cod = h.dom, h.cod
    hit = {h.mapping[x] for x in dom.states}
    image_states = tuple(y for y in cod.states if y in hit)
    structure = {y: cod.structure[y] for y in image_states}
    point = h.mapping[dom.point] if h.pointed else None
    image = _derived(dom.functor, image_states, structure, point)
    e = Morphism(dom, image, h.mapping)
    m = Morphism(image, cod, {y: y for y in image_states})
    return Factorization(e, image, m)


# ---------------------------------------------------------------------------
# Partitions and quotients
# ---------------------------------------------------------------------------


class Partition(Value):
    """Disjoint nonempty blocks in canonical form.

    Members of each block are sorted and blocks are ordered by their least
    member, so equal partitions compare equal.  Covering of a carrier is
    checked where a carrier is available (see apply_partition_quotient).
    """

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[str]]) -> "Partition":
        canon = []
        seen: set[str] = set()
        for block in blocks:
            block = list(block)
            for bad in (m for m in block if not isinstance(m, str)):
                raise NotAPartition(f"block member {bad!r} is not a state id")
            members = tuple(sorted(set(block)))
            if not members:
                raise NotAPartition("empty block")
            if seen & set(members):
                raise NotAPartition(f"overlapping blocks at {sorted(seen & set(members))!r}")
            seen.update(members)
            canon.append(members)
        canon.sort(key=lambda b: b[0])
        return cls(tuple(canon))

    @classmethod
    def discrete(cls, states: Iterable[str]) -> "Partition":
        return cls.of([s] for s in states)

    @classmethod
    def from_key(cls, states: Iterable[str], key) -> "Partition":
        groups: dict[object, list[str]] = {}
        for s in states:
            groups.setdefault(key(s), []).append(s)
        return cls.of(groups.values())

    def members(self) -> frozenset[str]:
        return frozenset(s for b in self.blocks for s in b)

    def representative_map(self) -> dict[str, str]:
        return {s: b[0] for b in self.blocks for s in b}

    @property
    def is_discrete(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def refines(self, other: "Partition") -> bool:
        """Every block of self lies inside a block of other."""
        rep = other.representative_map()
        return all(len({rep[s] for s in b}) == 1 for b in self.blocks)


def kernel_partition(h: Morphism) -> Partition:
    """The fibers of h as a partition of its domain carrier."""
    return Partition.from_key(h.dom.states, h.mapping.__getitem__)


def apply_partition_quotient(c: Coalgebra, p: Partition) -> tuple[Coalgebra, Morphism]:
    """Quotient c by a compatible partition of its carrier.

    Quotient states are the least members of the blocks, so the result is
    canonical and diffable.  One pass certifies it: a block's quotient
    structure is the image of its least member, and every other member's
    image must equal it, which is both the compatibility of p and the
    homomorphism law of the (surjective) projection at every state.
    """
    if p.members() != frozenset(c.states):
        raise NotAPartition("blocks do not cover the carrier exactly")
    kappa = p.representative_map()
    spec = c.functor
    q_structure = {}
    for block in p.blocks:
        first = spec.fmap(kappa, c.structure[block[0]])
        for x in block[1:]:
            if spec.fmap(kappa, c.structure[x]) != first:
                raise IncompatiblePartition(block, block[0], x)
        q_structure[block[0]] = first
    q = _derived(spec, tuple(q_structure), q_structure, kappa.get(c.point))
    return q, _derived_morphism(c, q, kappa)
