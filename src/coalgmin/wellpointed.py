"""Combining both minimization aspects, isomorphism, and tree unravelling.

A pointed coalgebra is well pointed when it is both reachable and simple;
the modification takes the simple quotient first, then the reachable part.
``commutation_check`` gets both orders from one refinement, with no search.
Homomorphisms preserve and reflect behaviour, so the classes of the
subcoalgebra reach(c) are those of c restricted to it: with q: c -> simple(c)
and p: reach(c) -> simple(reach(c)) the quotient by them, q(z) = q(z') iff
p(z) = p(z').  So q(z) |-> p(z) is a bijection from the image of reach(c)
under q, a subcoalgebra of simple(c) that holds the point and hence contains
reach(simple(c)).  The orders agree iff the results have equally many
states; then that map is the (unique) isomorphism, checked one way only, as
the inverse of a bijective homomorphism is one.  They can disagree for
rational weights, which may cancel.

``are_isomorphic`` is individualization-refinement (McKay & Piperno,
*Practical Graph Isomorphism, II*, J. Symb. Comp. 2014) over the engine of
:mod:`coalgmin.quotient`, run on a + b with the points marked and each
edge counted by label and weight in both directions, its weights scaled to
ints as refinement scales them over a and b together.  When every class holds
one state of each side, that matching is the only candidate.  Otherwise the
first state of a (the point, then carrier order) in a larger class is paired
in turn with each b-state of its class, in b's carrier order, and the search
refines again.  Nothing prunes an isomorphism, so the first one found is the
least in that order.  Well-pointed and reachable deterministic inputs take
one engine run; the work of all runs is bounded by ``ISO_SEARCH_BUDGET``,
past which the search raises ``SearchBoundExceeded``.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Coalgebra,
    Morphism,
    Partition,
    apply_partition_quotient,
    check_homomorphism,
    require_homomorphism,
)
from .errors import CyclicReachablePart, NotPointed, SearchBoundExceeded, SpecMismatch
from .functors import FunctorSpec, Value
from .quotient import _refine, _refinement_rows, is_simple, simple_quotient
from .reachability import is_reachable, reachable_part

# States read plus edges visited, summed over the engine runs of one
# isomorphism search.
ISO_SEARCH_BUDGET = 5_000_000

# States of one unravelled tree.  A DAG's tree can be exponentially larger:
# a chain of n states with weight-2 bag edges unravels to 2**n - 1 states.
UNRAVEL_STATE_BUDGET = 100_000


def well_pointed_modification(c: Coalgebra) -> Coalgebra:
    """Simple quotient first, then its reachable part."""
    if c.point is None:
        raise NotPointed("the well-pointed modification needs a pointed coalgebra")
    quotient, _, _ = simple_quotient(c)
    part, _ = reachable_part(quotient)
    return part


def is_well_pointed(c: Coalgebra) -> bool:
    return is_reachable(c) and is_simple(c)


class CommutationReport(Value):
    _fields = ("simple_first", "reach_first", "agree", "iso")

    def __init__(self, simple_first: Coalgebra, reach_first: Coalgebra, agree: bool,
                 iso: Optional[Morphism]):
        self.__dict__.update(simple_first=simple_first, reach_first=reach_first, agree=agree,
                             iso=iso)


def commutation_check(c: Coalgebra) -> CommutationReport:
    """Run both minimization orders and compare the results up to isomorphism.

    ``reach_first`` may itself fail to be reachable for rational weights; it
    is still reported as computed.
    """
    part, _ = reachable_part(c)
    quotient, q, _ = simple_quotient(c)
    simple_first, _ = reachable_part(quotient)
    reach_first, p = apply_partition_quotient(part, Partition.from_key(part.states, q))
    if len(simple_first.states) != len(reach_first.states):
        return CommutationReport(simple_first, reach_first, False, None)
    iso = Morphism(simple_first, reach_first, {q(z): p(z) for z in part.states})
    return CommutationReport(simple_first, reach_first, True, require_homomorphism(iso))


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------


def are_isomorphic(a: Coalgebra, b: Coalgebra) -> Optional[Morphism]:
    """The least bijective homomorphism a -> b (point-preserving when
    pointed), or None.

    "Least" compares images state by state, the point first and then a's
    carrier order, by position in b's carrier.  The inverse of a bijective
    homomorphism is a homomorphism, for every functor, so it is not checked.
    """
    if a.functor != b.functor:
        raise SpecMismatch("cannot compare coalgebras over different functors")
    if (a.point is None) != (b.point is None):
        raise SpecMismatch("cannot compare pointed with unpointed coalgebras")
    if len(a.states) != len(b.states):
        return None
    return _individualization_refinement(a, b)


def _individualization_refinement(a: Coalgebra, b: Coalgebra) -> Optional[Morphism]:
    """The search of :func:`are_isomorphic`.  State x of a + b is a's x-th
    state for x < n and b's (x - n)-th state otherwise."""
    spec = a.functor
    n = len(a.states)
    parts = [(c, {s: offset + i for i, s in enumerate(c.states)}) for offset, c in ((0, a), (n, b))]
    pointed = [s == c.point for c in (a, b) for s in c.states]
    start: list = []
    edges: list[list] = [[] for _ in range(2 * n)]
    for x, (constant, out) in enumerate(_refinement_rows(spec, parts)):
        start.append((constant, pointed[x]))
        for label, y, w in out:  # counted at y too, so splits also run backwards
            edges[x].append((("succ", label, w), y, 1))
            edges[y].append((("pred", label, w), x, 1))
    order = sorted(range(n), key=lambda x: a.states[x] != a.point)
    spent = 0

    def refine(colours: list) -> Optional[tuple[list[int], list[set[int]]]]:
        """Each state's class and the classes, or None if a class holds
        unequally many states of a and b."""
        nonlocal spent
        blocks, visits = _refine(2 * n, zip(colours, edges), FunctorSpec.observe)
        spent += 2 * n + visits
        if spent > ISO_SEARCH_BUDGET:
            raise SearchBoundExceeded(
                f"isomorphism search passed its budget of {ISO_SEARCH_BUDGET} "
                "refinement steps (states read plus edges visited)"
            )
        class_of = [0] * (2 * n)
        for k, block in enumerate(blocks):
            if 2 * sum(x < n for x in block) != len(block):
                return None
            for x in block:
                class_of[x] = k
        return class_of, blocks

    def individualized(class_of: list[int], x: int, ys: list[int], fresh: int):
        for y in ys:
            colours = list(class_of)
            colours[x] = colours[y] = fresh
            yield refine(colours)

    pending = [filter(None, [refine(start)])]
    while pending:
        refined = next(pending[-1], None)
        if refined is None:
            pending.pop()
            continue
        class_of, blocks = refined
        x = next((x for x in order if len(blocks[class_of[x]]) > 2), None)
        if x is not None:
            ys = sorted(y for y in blocks[class_of[x]] if y >= n)
            pending.append(filter(None, individualized(class_of, x, ys, len(blocks))))
            continue
        pairs = (sorted(block) for block in blocks)
        iso = Morphism(a, b, {a.states[x]: b.states[y - n] for x, y in pairs})
        if check_homomorphism(iso):
            return iso
    return None


# ---------------------------------------------------------------------------
# Tree unravelling
# ---------------------------------------------------------------------------


def tree_unravel(c: Coalgebra) -> tuple[Coalgebra, Morphism]:
    """Unfold the reachable part into its tree of edge paths.

    Tree states are numbered breadth first: the point unravels to the root
    ``"0"``, and each tree state's children get the next numbers in
    canonical edge order (``FunctorSpec._ordered``).  An edge whose weight
    :meth:`~coalgmin.functors.FunctorSpec.unit_copies` splits in k becomes k
    tree edges of weight w / k, so a natural-weighted edge of weight k is k
    unit edges and the result is a tree in the multigraph sense; every other
    edge keeps its weight.  The covering map sends each tree state to the
    state it unravels and is a surjective pointed homomorphism onto the
    reachable part.  Cyclic reachable parts are rejected because their
    unravelling is infinite, and a tree of more than
    ``UNRAVEL_STATE_BUDGET`` states raises ``SearchBoundExceeded`` before
    any of it is built.  One depth-first search, :func:`_tree_size`, looks
    for a cycle first and counts the tree's states once it finds none.
    """
    part, _ = reachable_part(c)
    if _tree_size(part) > UNRAVEL_STATE_BUDGET:
        raise SearchBoundExceeded(
            f"the unravelled tree passed its budget of {UNRAVEL_STATE_BUDGET} states"
        )
    spec = part.functor
    index = part.state_index()
    endpoint = [part.point]  # tree state str(i) unravels endpoint[i]
    structure: dict[str, object] = {}
    for i, x in enumerate(endpoint):  # the loop reaches the children appended below
        constant, out = spec.split(part.structure[x])
        edges = []
        for label, y, w in spec._ordered(out, index):
            k = spec.unit_copies(w)
            for weight in [w] if k is None else [w / k] * k:
                edges.append((label, str(len(endpoint)), weight))
                endpoint.append(y)
        structure[str(i)] = spec.join(constant, edges)
    states = [str(i) for i in range(len(endpoint))]
    tree = Coalgebra(spec, states, structure, "0")
    covering = Morphism(tree, part, dict(zip(states, endpoint)))
    require_homomorphism(covering)
    assert covering.is_surjective()
    return tree, covering


def _tree_size(c: Coalgebra) -> int:
    """The number of states of the unravelled tree of c, which is reachable
    from its point, capped at ``UNRAVEL_STATE_BUDGET + 1``.

    One depth-first search from the point, with an explicit stack so deep
    chains need no recursion, visits successors in carrier order.  The first
    edge back onto the search path raises ``CyclicReachablePart`` with that
    cycle.  A state's size, computed when its search finishes, is 1 plus
    each edge's :meth:`~coalgmin.functors.FunctorSpec.unit_copies` times
    its target's size.  The search does not stop at the budget, so no cycle
    hides behind a large acyclic part.
    """
    spec = c.functor
    index = c.state_index()
    size: dict[str, int] = {}

    def successors(x: str):
        return iter(sorted(spec.support(c.structure[x]), key=index.__getitem__))

    path = [c.point]
    on_path = {c.point}
    pending = [successors(c.point)]
    while pending:
        for y in pending[-1]:
            if y in on_path:
                raise CyclicReachablePart(path[path.index(y):] + [y])
            if y not in size:
                path.append(y)
                on_path.add(y)
                pending.append(successors(y))
                break
        else:
            x = path.pop()
            on_path.remove(x)
            pending.pop()
            edges = spec.split(c.structure[x])[1]
            total = 1 + sum((spec.unit_copies(w) or 1) * size[y] for _, y, w in edges)
            size[x] = min(total, UNRAVEL_STATE_BUDGET + 1)
    return size[c.point]
