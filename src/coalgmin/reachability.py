"""Reachable parts of pointed coalgebras.

The reachable part is the breadth-first closure of the point under successor
support.  The exponential intersection-of-subcoalgebras construction it is
checked against is ``oracles.enumerate_pointed_subcoalgebras``.
"""

from __future__ import annotations

from collections import deque

from .core import Coalgebra, Morphism, _derived, _derived_morphism
from .errors import NotPointed


def reachable_part(c: Coalgebra) -> tuple[Coalgebra, Morphism]:
    """The least pointed subcoalgebra of pointed c and its inclusion.

    States are discovered breadth-first from the point, expanding successor
    supports in carrier order, so the carrier of the result is a canonical
    BFS order.  Applying this to its own result is the identity.
    """
    if c.point is None:
        raise NotPointed("the reachable part needs a pointed coalgebra")
    index = c.state_index()
    spec = c.functor
    seen = {c.point}
    order = [c.point]
    queue = deque([c.point])
    while queue:
        x = queue.popleft()
        successors = sorted(spec.support(c.structure[x]), key=index.__getitem__)
        for y in successors:
            if y not in seen:
                seen.add(y)
                order.append(y)
                queue.append(y)
    states = tuple(order)
    structure = {s: c.structure[s] for s in states}
    part = _derived(spec, states, structure, c.point)
    return part, _derived_morphism(part, c, {s: s for s in states})


def is_reachable(c: Coalgebra) -> bool:
    """True iff no state can be dropped: the BFS closure is the whole carrier."""
    part, _ = reachable_part(c)
    return set(part.states) == set(c.states)

