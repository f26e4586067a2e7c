"""Exception types used across the library.

Construction errors carry the offending value so callers can report precise
diagnostics; the CLI maps every subclass of :class:`CoalgminError` to exit
code 2 unless stated otherwise.
"""


class CoalgminError(Exception):
    """Base class of all library-specific errors."""


class MalformedStructure(CoalgminError):
    """A successor structure violates the invariants of its functor."""


class ZeroWeightEntry(MalformedStructure):
    """A weighted structure stores an explicit zero weight."""


class PartialMap(CoalgminError):
    """A state map is not total where totality is required."""


class InvalidMorphism(CoalgminError):
    """The maps of a fill-in square do not fit the carriers they connect."""


class SpecMismatch(CoalgminError):
    """Two values built for different functors were combined."""


class NotPointed(CoalgminError):
    """A pointed-only operation was given a coalgebra without a point."""


class WeightedWithoutPool(CoalgminError):
    """Weighted random generation needs a finite weight pool."""


class ValidationError(CoalgminError):
    """A coalgebra or document failed validation; carries every violation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        super().__init__(lines or "validation failed")


class DomainMismatch(CoalgminError):
    """Morphism composition where cod(inner) differs from dom(outer)."""


class NotAHomomorphism(CoalgminError):
    def __init__(self, witness: str):
        super().__init__(f"map violates the homomorphism law at state {witness!r}")
        self.witness = witness


class NotAPartition(CoalgminError):
    """Blocks are empty, overlapping, or do not cover the carrier."""


class IncompatiblePartition(CoalgminError):
    def __init__(self, block, x: str, y: str):
        super().__init__(
            f"states {x!r} and {y!r} of block {tuple(block)!r} have different "
            "successor structures modulo the partition"
        )
        self.block = tuple(block)
        self.x = x
        self.y = y


class SquareDoesNotCommute(CoalgminError):
    def __init__(self, witness: str):
        super().__init__(f"square does not commute at {witness!r}")
        self.witness = witness


class NotSurjective(CoalgminError):
    """The map on the epi side of a fill-in square is not surjective."""


class NotInjective(CoalgminError):
    """The map on the mono side of a fill-in square is not injective."""


class OracleBoundExceeded(CoalgminError):
    """An enumeration oracle was asked about an instance above its bound."""


class SearchBoundExceeded(CoalgminError):
    """A search passed its budget: homomorphism enumeration its candidate
    bound, the isomorphism search its refinement work bound, or tree
    unravelling its state bound."""


class CyclicReachablePart(CoalgminError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(
            "reachable part contains a cycle: " + " -> ".join(self.cycle)
        )


class WrongFunctor(CoalgminError):
    """Operation applied to a coalgebra of an unsupported functor."""


class UnknownSuite(CoalgminError):
    """A property suite was requested by a name that does not exist."""


class ParseError(CoalgminError):
    def __init__(self, line, reason: str):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line else ""
        super().__init__(where + reason)
