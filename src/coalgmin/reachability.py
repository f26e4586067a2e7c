"""Reachable parts of pointed coalgebras.

The production path is a breadth-first closure of the point under successor
support; the exponential intersection-of-subcoalgebras construction lives here
too, as an enumeration oracle for small instances.
"""

from __future__ import annotations

from collections import deque

from .core import Coalgebra, Morphism, _record_valid, require_valid
from .errors import NotPointed, OracleBoundExceeded

DEFAULT_SUBCOALGEBRA_BOUND = 12


def reachable_part(c: Coalgebra) -> tuple[Coalgebra, Morphism]:
    """The least pointed subcoalgebra of pointed c and its inclusion.

    States are discovered breadth-first from the point, expanding successor
    supports in carrier order, so the carrier of the result is a canonical
    BFS order.  Applying this to its own result is the identity.
    """
    if c.point is None:
        raise NotPointed("the reachable part needs a pointed coalgebra")
    require_valid(c)
    index = c.state_index()
    spec = c.functor
    seen = {c.point}
    order = [c.point]
    queue = deque([c.point])
    while queue:
        x = queue.popleft()
        successors = sorted(spec.support(c.struct_of(x)), key=index.__getitem__)
        for y in successors:
            if y not in seen:
                seen.add(y)
                order.append(y)
                queue.append(y)
    states = tuple(order)
    structure = {s: c.struct_of(s) for s in states}
    part = _record_valid(Coalgebra(spec, states, structure, c.point))
    inclusion = Morphism(part, c, {s: s for s in states})
    return part, inclusion


def is_reachable(c: Coalgebra) -> bool:
    """True iff no state can be dropped: the BFS closure is the whole carrier."""
    part, _ = reachable_part(c)
    return set(part.states) == set(c.states)


def enumerate_pointed_subcoalgebras(
    c: Coalgebra, bound: int = DEFAULT_SUBCOALGEBRA_BOUND
) -> list[tuple[str, ...]]:
    """All carriers of pointed subcoalgebras, exhaustively.

    A subset qualifies when it contains the point and is closed under
    successor support.  Subsets are reported in ascending bitmask order over
    the carrier, each as a tuple in carrier order.
    """
    if c.point is None:
        raise NotPointed("pointed subcoalgebras need a pointed coalgebra")
    require_valid(c)
    n = len(c.states)
    if n > bound:
        raise OracleBoundExceeded(
            f"carrier has {n} states, oracle bound is {bound}"
        )
    spec = c.functor
    supports = {s: spec.support(c.struct_of(s)) for s in c.states}
    point_bit = c.states.index(c.point)
    out = []
    for mask in range(1 << n):
        if not mask >> point_bit & 1:
            continue
        subset = frozenset(s for i, s in enumerate(c.states) if mask >> i & 1)
        if all(supports[s] <= subset for s in subset):
            out.append(tuple(s for s in c.states if s in subset))
    return out
