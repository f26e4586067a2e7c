"""The four built-in system-type functors and their successor structures.

A functor value fixes the shape of one state's successor structure and the
action of state maps on it.  The rest of the library is generic over
:class:`FunctorSpec`.  Adding a functor means subclassing it with a new
``kind``, entering the class in :data:`KINDS` under that kind, which
``formats.parse_functor`` looks up, and implementing ``check_structure``,
the action ``fmap``/``support``, the edge form ``split``/``join`` (a
constant part and (label, target, weight) edges) and the document form
``read``/``write``: ``read`` decodes a payload and says in the same pass
whether the structure is admitted, and ``write`` writes its JSON text from
a table of quoted state ids.  A functor's parameters are :class:`Value`
fields: it names them in ``_fields`` and its ``__init__`` checks and sets
them.  A ``@dataclass(frozen=True)`` subclass works too, but cannot inherit
a built-in functor's fields.  ``split``/``join`` is the only edge walk a
functor supplies: partition refinement (``quotient._refinement_rows``),
tree unravelling (``wellpointed.tree_unravel``) and DOT output
(``formats.emit_dot``) walk it themselves in the canonical order of
``_ordered``, and ``FunctorSpec`` derives from it the relational
``pair_structure`` and ``random_structure``.  A functor overrides these, or
defaults such as ``labels``, ``observe``, ``refinement_scale`` and
``unit_copies``, only where its own rule differs.  ``fmap`` and ``support``
follow from the edge form too, but they run once per state on every path,
and derived copies made whole jobs 5-19% slower (README).  Callers use these
methods directly (``spec.fmap(m, t)``); there are no module-level wrappers.

Only ``check_structure`` holds the rules of a structure; the built-ins'
``read`` calls the same predicates (the alphabet match, the known labels,
``check_weight``).  The ``struct`` builders build the canonical value,
coercing nothing, and return it through ``check_structure``.  The other
methods trust their input: the ``core.Coalgebra`` constructor runs
``check_structure`` on every state once, and a parsed document is built
without it only when ``read`` admitted every structure, so the structures
of a coalgebra are always well formed.

Structures are immutable, canonical and hashable: two structures are
semantically equal iff they compare equal, which is what lets the quotient
and the oracles compare successor structures with ``==``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quoted
from math import lcm
from operator import attrgetter
from typing import AbstractSet, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    MalformedStructure,
    ParseError,
    PartialMap,
    SpecMismatch,
    WeightedWithoutPool,
    ZeroWeightEntry,
)

# Exact weights.  Equality of weighted structures must be decidable for the
# refinement fixpoint to be meaningful, so floats are out.
Weight = Fraction

RATIONALS = "rational"
NATURALS = "natural"

# Bits of the largest common scale rational refinement sums in.  Every scaled
# weight and sum is an int of up to this size; past it the LCM grows with the
# number of distinct denominators, not with any one state's, so refinement
# sums the weights as Fractions instead.
REFINEMENT_SCALE_BITS = 512


class Value:
    """An immutable value.  A class names its fields once, in ``_fields``,
    and its ``__init__`` checks and sets them (in ``__slots__`` through
    ``object.__setattr__``, or in ``__dict__``).  Equality, hashing and
    pickling go by class and fields; the repr is a dataclass's, which
    ``oracles.random_coalgebra`` seeds its generator with."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key = staticmethod(lambda value: ())  # what equality and hashing compare

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("_fields"):
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # a subclass that does not name its own _fields, such as a dataclass
        # functor, may take other arguments: it pickles as an object does
        if "_fields" not in type(self).__dict__:
            return object.__reduce__(self)
        return type(self), tuple([getattr(self, name) for name in self._fields])


class DfaStruct(Value):
    """Acceptance flag plus one successor per symbol, in alphabet order."""

    __slots__ = _fields = ("accepting", "moves")

    def __init__(self, accepting: bool, moves: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "moves", moves)


class SetStruct(Value):
    __slots__ = _fields = ("successors",)

    def __init__(self, successors: frozenset[str]):
        object.__setattr__(self, "successors", successors)


class LabelledStruct(Value):
    __slots__ = _fields = ("edges",)

    def __init__(self, edges: frozenset[tuple[str, str]]):  # (label, target) pairs
        object.__setattr__(self, "edges", edges)


class WeightedStruct(Value):
    """Finite map target -> nonzero weight, stored sorted by target id."""

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: tuple[tuple[str, Weight], ...]):
        object.__setattr__(self, "weights", weights)


FStructure = Union[DfaStruct, SetStruct, LabelledStruct, WeightedStruct]


def _check_distinct(symbols: Sequence[str], what: str) -> tuple[str, ...]:
    if isinstance(symbols, str):  # not split into its characters
        raise ValueError(f"{what} entries must be strings, got the string {symbols!r}")
    symbols = tuple(symbols)
    if not symbols:
        raise ValueError(f"{what} must be nonempty")
    if not all(isinstance(s, str) for s in symbols):
        raise ValueError(f"{what} entries must be strings")
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"{what} contains duplicates: {symbols!r}")
    return symbols


def _require_pairs(entries, container: type, what: str) -> None:
    """Raise MalformedStructure unless ``entries`` is a ``container`` of
    2-tuples, so that the rest of ``check_structure`` can unpack them."""
    if not isinstance(entries, container) or not all(
        type(e) is tuple and len(e) == 2 for e in entries
    ):
        raise MalformedStructure(f"{what} must be a {container.__name__} of pairs, got {entries!r}")


def _strings(values) -> bool:
    return all(isinstance(v, str) for v in values)


def string_list(value, what: str) -> list[str]:
    """``value`` if it is a JSON list of strings, else a ParseError."""
    if not isinstance(value, list) or not _strings(value):
        raise ParseError(None, f"{what} must be a list of strings")
    return value


def json_container(opening: str, items: list[str], closing: str, newline: str) -> str:
    """A JSON list or object of the item texts ``items``, one per line, as
    ``json.dumps(indent=2)`` writes it when ``newline`` breaks the line
    before ``closing``."""
    if not items:
        return opening + closing
    inner = newline + "  "
    return opening + inner + ("," + inner).join(items) + newline + closing


class FunctorSpec(Value):
    """Interface shared by the built-in functors.

    ``preserves_inverse_images`` is advisory: it records for which functors
    quotients of reachable systems stay reachable, hence for which the two
    minimization aspects commute.  It is attested for the rational-weighted
    case (weights may cancel) and validated empirically for the others by the
    property suites.
    """

    kind: str = ""
    structure_type: type = object
    labels: tuple = (None,)  # the edge labels, in canonical edge order
    weight_labels: bool = False  # DOT output labels edges with their weights
    preserves_inverse_images: bool = True
    preserves_weak_kernel_pairs: bool = True

    # -- construction -----------------------------------------------------

    def check_structure(self, t: FStructure) -> None:
        """Raise MalformedStructure unless t is well-formed for this functor."""
        raise NotImplementedError

    # -- the functor's action and queries ----------------------------------

    def fmap(self, mapping: Mapping[str, str], t: FStructure) -> FStructure:
        """Apply a state map to a successor structure (the functor's action)."""
        raise NotImplementedError

    def support(self, t: FStructure) -> frozenset[str]:
        """The state ids occurring in t."""
        raise NotImplementedError

    # -- the edge form and partition refinement ------------------------------

    def split(self, t: FStructure) -> tuple[Hashable, list[tuple]]:
        """t as a hashable constant part and a list of (label, target,
        weight) edges, in t's own order.  Labels are among :attr:`labels`,
        and an unweighted edge weighs 1.  Two states are behaviourally equal
        exactly when their constants agree and, for every label and every
        class, :meth:`observe` of their summed weights into the class agrees."""
        raise NotImplementedError

    def join(self, constant: Hashable, edges: Iterable[tuple]) -> FStructure:
        """The inverse of :meth:`split`, over whatever targets the edges name."""
        raise NotImplementedError

    def _ordered(self, edges: Iterable[tuple], index: Mapping[str, int]) -> list[tuple]:
        """Edges that start with (label, target) in canonical order: by label
        in :attr:`labels` order, then by target position in ``index``."""
        return sorted(edges, key=lambda e: (self.labels.index(e[0]), index[e[1]]))

    def refinement_scale(self, structures: Iterable[FStructure]) -> Optional[int]:
        """A positive int s such that s times every weight of these
        structures is an int, or None, the default, to sum the weights as
        they are.  The engine's rows take every weight times s as an int
        once, so that they add, subtract and hash ints."""
        return None

    @staticmethod
    def observe(weight):
        """What refinement sees of a sum of edge weights: by default the sum
        itself.  It must be falsy exactly when the sum is zero, and scaling
        every sum by the same :meth:`refinement_scale` must not change which
        sums it tells apart."""
        return weight

    # -- documents and rendering -------------------------------------------

    def payload(self) -> dict:
        """The functor's JSON descriptor."""
        return {"kind": self.kind}

    @classmethod
    def from_payload(cls, payload: dict) -> "FunctorSpec":
        """Inverse of :meth:`payload`; ``payload["kind"]`` is already matched."""
        return cls()

    def write(
        self, t: FStructure, index: Mapping[str, int], quoted: Mapping[str, str], newline: str
    ) -> str:
        """The JSON text of t as ``formats.canonical_json`` writes its
        document form, breaking lines with ``newline``, with state lists in
        carrier order; ``quoted`` holds every state id as a JSON string."""
        raise NotImplementedError

    def read(self, payload, state: str, carrier: AbstractSet[str]) -> tuple[FStructure, bool]:
        """The raw structure that ``payload``, the document form of
        ``state``'s structure, holds, and whether it is admitted.  Wrong
        JSON types raise ParseError; semantic problems (zero weights,
        missing symbols, dangling targets) are left for validation, which
        reports them all together.  The structure is admitted exactly when
        :meth:`check_structure` passes and :meth:`support` lies in
        ``carrier``: an admitted structure is one the ``core.Coalgebra``
        constructor accepts, so a document of admitted structures is built
        without validating it again."""
        raise NotImplementedError

    def node_shape(self, t: FStructure) -> str:
        """Graphviz node shape of a state with structure t."""
        return "circle"

    # -- constructions over structures ------------------------------------

    def unit_copies(self, weight) -> Optional[int]:
        """How many tree edges of weight ``weight / k`` an edge of this weight
        unravels into, k, or None, the default, for one that keeps the weight."""
        return None

    def random_pool(self, weight_pool: Optional[Sequence]):
        """The checked, sorted weight pool random generation draws from."""
        return None

    def random_structure(self, states: Sequence[str], rng, pool, density: float) -> FStructure:
        """A random structure over ``states``, drawn from ``rng``, with
        constant None: for each label and then each state, an edge with
        probability ``density`` and weight drawn from ``pool`` (1 if None)."""
        edges = [(l, s, 1 if pool is None else rng.choice(pool))
                 for l in self.labels for s in states if rng.random() < density]
        return self.join(None, edges)

    def pair_structure(self, tx, ty, kappa: Mapping[str, str], index, pair_id) -> FStructure:
        """Structure of a pair of states with structures tx, ty in the kernel
        pair of ``kappa``, over ``pair_id(u, v)`` of merged successors: tx's
        constant, and tx's edge to u for each edge of ty with its label to a
        v that ``kappa`` merges with u.  Weights that add up need their own."""
        (constant, ex), (_, ey) = self.split(tx), self.split(ty)
        edges = [(l, pair_id(u, v), w)
                 for l, u, w in ex for k, v, _ in ey if l == k and kappa[u] == kappa[v]]
        return self.join(constant, edges)

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _unmapped(mapping: Mapping[str, str], states: Iterable[str]) -> PartialMap:
        """The error naming the first of ``states`` that ``mapping`` misses,
        once a lookup of one of them failed."""
        missing = next(s for s in states if s not in mapping)
        return PartialMap(f"map is undefined at state {missing!r}")

    def _checked(self, t: FStructure) -> FStructure:
        self.check_structure(t)
        return t

    def require_structure(self, t: FStructure) -> None:
        if not isinstance(t, self.structure_type):
            raise SpecMismatch(
                f"expected a {self.structure_type.__name__} for functor "
                f"{self.kind!r}, got {type(t).__name__}"
            )


class DfaFunctor(FunctorSpec):
    """Deterministic automata: an acceptance bit and one successor per symbol."""

    _fields = ("alphabet",)
    kind = "dfa"
    structure_type = DfaStruct

    def __init__(self, alphabet: Sequence[str]):
        object.__setattr__(self, "alphabet", _check_distinct(alphabet, "alphabet"))

    def struct(self, accepting: bool, moves: Mapping[str, str]) -> DfaStruct:
        return self._checked(DfaStruct(accepting, self._moves(moves)))

    def _moves(self, moves: Mapping) -> tuple[tuple[str, str], ...]:
        """The moves in alphabet order, then those of unknown symbols, which
        ``check_structure`` rejects."""
        if tuple(moves) == self.alphabet:
            return tuple(moves.items())
        known = [(a, moves[a]) for a in self.alphabet if a in moves]
        return tuple(known + [(a, t) for a, t in moves.items() if a not in self.alphabet])

    def check_structure(self, t: FStructure) -> None:
        self.require_structure(t)
        _require_pairs(t.moves, tuple, "moves")
        try:
            hash(t.moves)
        except TypeError:  # a target that cannot be hashed
            raise MalformedStructure(f"moves must be hashable, got {t.moves!r}") from None
        if not isinstance(t.accepting, bool):
            raise MalformedStructure(f"acceptance must be a bool, got {t.accepting!r}")
        if not self._spells_alphabet(t.moves):
            raise MalformedStructure(
                f"transition entries {t.moves!r} do not match alphabet {self.alphabet!r}"
            )

    def _spells_alphabet(self, moves) -> bool:
        """Whether ``moves`` take each symbol once, in alphabet order."""
        return tuple([sym for sym, _ in moves]) == self.alphabet

    def fmap(self, mapping, t):
        try:
            return DfaStruct(t.accepting, tuple([(sym, mapping[tgt]) for sym, tgt in t.moves]))
        except KeyError:
            raise self._unmapped(mapping, (tgt for _, tgt in t.moves)) from None

    def support(self, t):
        return frozenset(tgt for _, tgt in t.moves)

    labels = property(lambda self: self.alphabet)

    def split(self, t):
        return t.accepting, [(sym, tgt, 1) for sym, tgt in t.moves]

    def join(self, constant, edges):
        return DfaStruct(constant, tuple([(sym, tgt) for sym, tgt, _ in edges]))

    def _ordered(self, edges, index):
        return edges  # moves are canonical already: one per symbol, in alphabet order

    def payload(self):
        return {"kind": self.kind, "alphabet": list(self.alphabet)}

    @classmethod
    def from_payload(cls, payload):
        return cls(tuple(string_list(payload.get("alphabet"), "alphabet")))

    def write(self, t, index, quoted, newline):
        inner = newline + "  "
        moves = [_quoted(sym) + ": " + quoted[tgt] for sym, tgt in sorted(t.moves)]
        return json_container("{", [
            '"accepting": ' + ("true" if t.accepting else "false"),
            '"next": ' + json_container("{", moves, "}", inner),
        ], "}", newline)

    def read(self, payload, state, carrier):
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("accepting"), bool)
            or not isinstance(payload.get("next"), dict)
        ):
            raise ParseError(
                None, f"dfa structure of {state!r} needs a boolean 'accepting' and a 'next' object"
            )
        moves = payload["next"]
        if not _strings(moves.values()):  # word the error only when there is one
            string_list(list(moves.values()), f"'next' targets of {state!r}")
        t = DfaStruct(payload["accepting"], self._moves(moves))
        return t, self._spells_alphabet(t.moves) and carrier.issuperset(moves.values())

    def node_shape(self, t):
        return "doublecircle" if t.accepting else "circle"

    def random_structure(self, states, rng, pool, density):
        return DfaStruct(
            rng.random() < 0.5,
            tuple((sym, rng.choice(states)) for sym in self.alphabet),
        )


class PowersetFunctor(FunctorSpec):
    """Transition systems: a finite set of successors."""

    kind = "powerset"
    structure_type = SetStruct

    def struct(self, successors: Iterable[str]) -> SetStruct:
        return self._checked(SetStruct(frozenset(successors)))

    def check_structure(self, t: FStructure) -> None:
        self.require_structure(t)
        if not isinstance(t.successors, frozenset):
            raise MalformedStructure(f"successors must be a frozenset, got {t.successors!r}")

    def fmap(self, mapping, t):
        try:
            return SetStruct(frozenset(map(mapping.__getitem__, t.successors)))
        except KeyError:
            raise self._unmapped(mapping, t.successors) from None

    def support(self, t):
        return t.successors

    def split(self, t):
        return None, [(None, s, 1) for s in t.successors]

    def join(self, constant, edges):
        return SetStruct(frozenset([s for _, s, _ in edges]))

    observe = staticmethod(bool)  # a set sees whether an edge exists, not how many

    def write(self, t, index, quoted, newline):
        targets = sorted(t.successors, key=index.__getitem__)
        return json_container("[", [quoted[s] for s in targets], "]", newline)

    def read(self, payload, state, carrier):
        if not (isinstance(payload, list) and _strings(payload)):  # as in DfaFunctor.read
            string_list(payload, f"successors of {state!r}")
        successors = frozenset(payload)
        return SetStruct(successors), successors <= carrier


class LabelledFunctor(FunctorSpec):
    """Labelled transition systems: a finite set of (label, successor) edges."""

    _fields = ("labels",)
    kind = "labelled-powerset"
    structure_type = LabelledStruct

    def __init__(self, labels: Sequence[str]):
        object.__setattr__(self, "labels", _check_distinct(labels, "labels"))

    def struct(self, edges: Iterable[tuple[str, str]]) -> LabelledStruct:
        return self._checked(LabelledStruct(frozenset((l, s) for l, s in edges)))

    def check_structure(self, t: FStructure) -> None:
        self.require_structure(t)
        _require_pairs(t.edges, frozenset, "edges")
        bad = self._unknown_labels(t.edges)
        if bad:
            raise MalformedStructure(f"unknown labels {sorted(bad, key=repr)!r}")

    def _unknown_labels(self, edges) -> set:
        return {l for l, _ in edges if l not in self.labels}

    def fmap(self, mapping, t):
        try:
            return LabelledStruct(frozenset([(l, mapping[s]) for l, s in t.edges]))
        except KeyError:
            raise self._unmapped(mapping, (s for _, s in t.edges)) from None

    def support(self, t):
        return frozenset(s for _, s in t.edges)

    def split(self, t):
        return None, [(l, s, 1) for l, s in t.edges]

    def join(self, constant, edges):
        return LabelledStruct(frozenset([(l, s) for l, s, _ in edges]))

    observe = staticmethod(bool)

    def payload(self):
        return {"kind": self.kind, "labels": list(self.labels)}

    @classmethod
    def from_payload(cls, payload):
        return cls(tuple(string_list(payload.get("labels"), "labels")))

    def write(self, t, index, quoted, newline):
        inner = newline + "  "
        edges = [json_container("[", [_quoted(l), quoted[s]], "]", inner)
                 for l, s in self._ordered(t.edges, index)]
        return json_container("[", edges, "]", newline)

    def read(self, payload, state, carrier):
        if not isinstance(payload, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in payload
        ):
            raise ParseError(None, f"labelled structure of {state!r} must be [label, state] pairs")
        edges = [(l, s) for l, s in payload if isinstance(l, str) and isinstance(s, str)]
        if len(edges) < len(payload):  # name the first edge that is not two strings
            for e in payload:
                string_list(e, f"edge {e!r} of {state!r}")
        t = LabelledStruct(frozenset(edges))
        return t, not self._unknown_labels(t.edges) and carrier.issuperset([s for _, s in edges])


_WEIGHT_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


@lru_cache(maxsize=1024)  # a document repeats a few short literals many times
def _literal_weight(text: str) -> Optional[Weight]:
    """``text`` read as a weight literal as the serializer writes it,
    ``-?digits(/digits)?`` with a nonzero denominator, or None if it is not
    one.  Documents and Python callers share this one grammar; they pass
    only strings, so nothing else is cached."""
    match = _WEIGHT_LITERAL.fullmatch(text)
    if match is None:
        return None
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except (ValueError, ZeroDivisionError):  # past the integer digit limit, or n/0
        return None


@lru_cache(maxsize=1024)  # as _literal_weight
def _admits_literal(monoid: str, text: str) -> bool:
    """Whether the weight the literal ``text`` denotes passes
    :meth:`WeightedFunctor.check_weight` over ``monoid``."""
    try:
        WeightedFunctor(monoid).check_weight(_literal_weight(text))
    except MalformedStructure:
        return False
    return True


def _as_weight(value) -> Weight:
    """A weight given in Python: a Fraction, an int that is not a bool, or a
    literal string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    weight = _literal_weight(value) if isinstance(value, str) else None
    if weight is None:
        raise MalformedStructure(
            f"a weight must be a Fraction, an int or a string n or n/d with d > 0, got {value!r}"
        )
    return weight


def _parse_weight(text, state: str) -> Weight:
    weight = _literal_weight(text) if isinstance(text, str) else None
    if weight is None:
        raise ParseError(
            None, f"weight for {state!r} must be a string n or n/d with d > 0, got {text!r}"
        )
    return weight


class WeightedFunctor(FunctorSpec):
    """Weighted systems over a commutative monoid of exact weights.

    ``monoid`` is ``"rational"`` or ``"natural"``; the natural case is the bag
    functor (finite multisets).  Zero weight means no transition, so zero
    entries are never stored.
    """

    _fields = ("monoid",)
    kind = "weighted"
    structure_type = WeightedStruct
    weight_labels = True

    def __init__(self, monoid: str):
        if monoid not in (RATIONALS, NATURALS):
            raise ValueError(f"unknown monoid {monoid!r}")
        object.__setattr__(self, "monoid", monoid)

    @property
    def preserves_inverse_images(self) -> bool:
        # Rational weights may cancel, which can disconnect quotient states.
        return self.monoid == NATURALS

    @property
    def preserves_weak_kernel_pairs(self) -> bool:
        return self.monoid == NATURALS

    def check_weight(self, w: Weight) -> None:
        if not w.numerator:
            raise ZeroWeightEntry("zero weight entries must be dropped")
        if self.monoid == NATURALS and (w.denominator != 1 or w.numerator < 0):
            raise MalformedStructure(
                f"natural-weighted structures need positive integer weights, got {w}"
            )

    def struct(self, weights: Mapping[str, object]) -> WeightedStruct:
        entries = sorted((s, _as_weight(w)) for s, w in weights.items())
        return self._checked(WeightedStruct(tuple(entries)))

    def check_structure(self, t: FStructure) -> None:
        self.require_structure(t)
        _require_pairs(t.weights, tuple, "weights")
        targets = [s for s, _ in t.weights]
        try:
            canonical = targets == sorted(set(targets))
        except TypeError:  # targets that cannot be hashed or ordered together
            canonical = False
        if not canonical:
            raise MalformedStructure(f"weight entries not canonical: {t.weights!r}")
        for _, w in t.weights:
            if not isinstance(w, Fraction):
                raise MalformedStructure(f"non-exact weight {w!r}")
            self.check_weight(w)

    def fmap(self, mapping, t):
        sums: dict[str, Weight] = {}
        try:
            for state, w in t.weights:
                image = mapping[state]
                if image in sums:
                    sums[image] += w
                else:
                    sums[image] = w
        except KeyError:
            raise self._unmapped(mapping, (s for s, _ in t.weights)) from None
        return WeightedStruct(tuple([(s, w) for s, w in sorted(sums.items()) if w]))

    def support(self, t):
        return frozenset(s for s, _ in t.weights)

    def split(self, t):
        return None, [(None, s, w) for s, w in t.weights]

    def join(self, constant, edges):
        return WeightedStruct(tuple(sorted([(s, w) for _, s, w in edges])))

    def refinement_scale(self, structures):
        scale = 1
        for d in {w.denominator for t in structures for _, w in t.weights}:
            scale = lcm(scale, d)
            if scale.bit_length() > REFINEMENT_SCALE_BITS:
                return None
        return scale

    def payload(self):
        return {"kind": self.kind, "monoid": self.monoid}

    @classmethod
    def from_payload(cls, payload):
        monoid = payload.get("monoid")
        if monoid not in (RATIONALS, NATURALS):
            raise ParseError(None, f"weighted monoid must be rational or natural, got {monoid!r}")
        return cls(monoid)

    def write(self, t, index, quoted, newline):
        weights = [quoted[s] + ": " + _quoted(str(w)) for s, w in t.weights]
        return json_container("{", weights, "}", newline)

    def read(self, payload, state, carrier):
        if not isinstance(payload, dict):
            raise ParseError(None, f"weighted structure of {state!r} must be an object")
        literals = payload.values()
        weights = [_parse_weight(w, state) for w in literals]
        t = WeightedStruct(tuple(sorted(zip(payload, weights))))
        monoid = self.monoid
        return t, carrier.issuperset(payload) and all(
            [_admits_literal(monoid, w) for w in literals]
        )

    def unit_copies(self, weight):  # a natural weight k is k unit edges
        return int(weight) if self.monoid == NATURALS else None

    def random_pool(self, weight_pool):
        if not weight_pool:
            raise WeightedWithoutPool("weighted generation needs a weight pool")
        pool = sorted(_as_weight(w) for w in weight_pool)
        for w in pool:
            self.check_weight(w)
        return pool

    def pair_structure(self, tx, ty, kappa, index, pair_id):
        if self.monoid != NATURALS:
            raise SpecMismatch(f"no kernel-pair structure for {self!r}")
        entries = []
        ex, ey = (sorted(t.weights, key=lambda e: index[e[0]]) for t in (tx, ty))
        for block in sorted({kappa[s] for s, _ in ex} | {kappa[s] for s, _ in ey}):
            sources = [[s, w] for s, w in ex if kappa[s] == block]
            sinks = [[s, w] for s, w in ey if kappa[s] == block]
            # northwest-corner transport: both sides sum to the block weight,
            # and each step empties a source or a sink, so no pair repeats
            i = j = 0
            while i < len(sources) and j < len(sinks):
                amount = min(sources[i][1], sinks[j][1])
                entries.append((None, pair_id(sources[i][0], sinks[j][0]), amount))
                sources[i][1] -= amount
                sinks[j][1] -= amount
                if sources[i][1] == 0:
                    i += 1
                if sinks[j][1] == 0:
                    j += 1
        return self.join(None, entries)


# The functor classes by ``kind``, which ``formats.parse_functor`` looks up; a
# new functor joins with one entry.
KINDS: dict[str, type[FunctorSpec]] = {
    cls.kind: cls for cls in (DfaFunctor, PowersetFunctor, LabelledFunctor, WeightedFunctor)
}
