"""Combining both minimization aspects, isomorphism, and tree unravelling.

A pointed coalgebra is well pointed when it is both reachable and simple.
The modification computes the simple quotient first and then the reachable
part, which is the order that is correct for every supported functor;
``commutation_check`` computes both orders and reports whether they agree,
which can fail for rational weights because transition weights may cancel.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .core import Coalgebra, Morphism, require_homomorphism, require_valid
from .errors import CyclicReachablePart, NotPointed, SpecMismatch
from .functors import DfaFunctor
from .observability import is_simple, simple_quotient
from .reachability import is_reachable, reachable_part


def well_pointed_modification(c: Coalgebra) -> Coalgebra:
    """Simple quotient first, then its reachable part."""
    if c.point is None:
        raise NotPointed("the well-pointed modification needs a pointed coalgebra")
    quotient, _, _ = simple_quotient(c)
    part, _ = reachable_part(quotient)
    return part


def is_well_pointed(c: Coalgebra) -> bool:
    return is_reachable(c) and is_simple(c)


@dataclass(frozen=True)
class CommutationReport:
    simple_first: Coalgebra
    reach_first: Coalgebra
    agree: bool
    iso: Optional[Morphism]


def commutation_check(c: Coalgebra) -> CommutationReport:
    """Run both minimization orders and compare the results up to isomorphism.

    ``reach_first`` may itself fail to be reachable for rational weights; it
    is still reported as computed.
    """
    require_valid(c)
    simple_first = well_pointed_modification(c)
    part, _ = reachable_part(c)
    reach_first, _, _ = simple_quotient(part)
    iso = are_isomorphic(simple_first, reach_first)
    return CommutationReport(simple_first, reach_first, iso is not None, iso)


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------


def are_isomorphic(a: Coalgebra, b: Coalgebra) -> Optional[Morphism]:
    """A bijective homomorphism a -> b (point-preserving when pointed), or None.

    Pointed reachable deterministic automata are compared through their
    canonical breadth-first orderings in linear time; everything else falls
    back to backtracking over bijections with signature pruning.
    """
    require_valid(a)
    require_valid(b)
    if a.functor != b.functor:
        raise SpecMismatch("cannot compare coalgebras over different functors")
    if (a.point is None) != (b.point is None):
        raise SpecMismatch("cannot compare pointed with unpointed coalgebras")
    if len(a.states) != len(b.states):
        return None
    if (
        isinstance(a.functor, DfaFunctor)
        and a.point is not None
        and is_reachable(a)
        and is_reachable(b)
    ):
        mapping = _dfa_canonical_match(a, b)
    else:
        mapping = _backtrack_iso(a, b)
    if mapping is None:
        return None
    forward = Morphism(a, b, mapping)
    backward = Morphism(b, a, {v: k for k, v in mapping.items()})
    require_homomorphism(forward)
    require_homomorphism(backward)
    return forward


def _dfa_canonical_match(a: Coalgebra, b: Coalgebra) -> Optional[dict]:
    """Match two reachable pointed DFAs along symbol-order BFS from the points."""

    def bfs(c: Coalgebra) -> list[str]:
        seen = {c.point}
        order = [c.point]
        queue = deque([c.point])
        while queue:
            x = queue.popleft()
            for _, tgt in c.struct_of(x).moves:
                if tgt not in seen:
                    seen.add(tgt)
                    order.append(tgt)
                    queue.append(tgt)
        return order

    order_a, order_b = bfs(a), bfs(b)
    if len(order_a) != len(order_b):
        return None
    mapping = dict(zip(order_a, order_b))
    for x in order_a:
        ta, tb = a.struct_of(x), b.struct_of(mapping[x])
        if ta.accepting != tb.accepting:
            return None
        for (sym, tgt_a), (_, tgt_b) in zip(ta.moves, tb.moves):
            if mapping[tgt_a] != tgt_b:
                return None
    return mapping


def _backtrack_iso(a: Coalgebra, b: Coalgebra) -> Optional[dict]:
    spec = a.functor
    sig_a = {x: spec.local_signature(a.struct_of(x)) for x in a.states}
    sig_b = {y: spec.local_signature(b.struct_of(y)) for y in b.states}
    if Counter(sig_a.values()) != Counter(sig_b.values()):
        return None
    order = list(a.states)
    pa, pb = a.point, b.point
    if pa is not None:
        if sig_a[pa] != sig_b[pb]:
            return None
        order.remove(pa)
        order.insert(0, pa)
    supports = {x: spec.support(a.struct_of(x)) for x in a.states}

    def consistent(mapping: dict) -> bool:
        for x in mapping:
            if supports[x] <= mapping.keys():
                image = spec.fmap(mapping, a.struct_of(x))
                if image != b.struct_of(mapping[x]):
                    return False
        return True

    def extend(i: int, mapping: dict, used: set) -> Optional[dict]:
        if i == len(order):
            return dict(mapping)
        x = order[i]
        candidates = (
            [pb] if x == pa else
            [y for y in b.states if y not in used and sig_b[y] == sig_a[x]]
        )
        for y in candidates:
            if y in used:
                continue
            mapping[x] = y
            used.add(y)
            if consistent(mapping):
                found = extend(i + 1, mapping, used)
                if found is not None:
                    return found
            del mapping[x]
            used.discard(y)
        return None

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# Tree unravelling
# ---------------------------------------------------------------------------


def tree_unravel(c: Coalgebra) -> tuple[Coalgebra, Morphism]:
    """Unfold the reachable part into its tree of edge paths.

    State ids of the tree are path strings rooted at the point, one segment
    per traversed edge.  A natural-weighted edge of weight k splits into k
    unit edges, so the result is a tree in the multigraph sense; rational
    weights keep one edge carrying the original weight.  The covering map
    sends each path to its endpoint and is a surjective pointed homomorphism
    onto the reachable part.  Cyclic reachable parts are rejected because
    their unravelling is infinite.
    """
    part, _ = reachable_part(c)
    cycle = _find_cycle(part)
    if cycle is not None:
        raise CyclicReachablePart(cycle)
    spec = part.functor
    index = part.state_index()
    root = part.point
    states: list[str] = [root]
    structure: dict[str, object] = {}
    endpoint = {root: root}
    queue = deque([root])
    while queue:
        path = queue.popleft()
        structure[path], children = spec.unravel(part.struct_of(endpoint[path]), path, index)
        for child_path, child_state in children:
            endpoint[child_path] = child_state
            states.append(child_path)
            queue.append(child_path)
    if len(set(states)) != len(states):
        # only possible when state ids already contain the path separator
        raise SpecMismatch("path ids collide; rename states containing '/'")
    tree = Coalgebra(spec, tuple(states), structure, root)
    covering = Morphism(tree, part, endpoint)
    require_homomorphism(covering)
    assert covering.is_surjective()
    return tree, covering


def _find_cycle(c: Coalgebra) -> Optional[list[str]]:
    """A cycle in the successor graph, as a state sequence, or None.

    Depth-first search with an explicit stack, so deep chains need no
    recursion; successors are visited in carrier order.
    """
    spec = c.functor
    index = c.state_index()
    white, grey, black = 0, 1, 2
    colour = {s: white for s in c.states}

    def successors(x: str):
        return iter(sorted(spec.support(c.struct_of(x)), key=index.__getitem__))

    for s in c.states:
        if colour[s] != white:
            continue
        colour[s] = grey
        path = [s]
        pending = [successors(s)]
        while pending:
            for y in pending[-1]:
                if colour[y] == grey:
                    return path[path.index(y):] + [y]
                if colour[y] == white:
                    colour[y] = grey
                    path.append(y)
                    pending.append(successors(y))
                    break
            else:
                colour[path.pop()] = black
                pending.pop()
    return None
