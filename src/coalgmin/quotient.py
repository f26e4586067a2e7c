"""Simple quotients via functor-generic partition refinement.

This is the paper's observability aspect of minimization: the greatest
quotient of a coalgebra, which merges exactly the behaviourally equivalent
states.

Two states are behaviourally equivalent when their successor structures agree
after every target is replaced by its class.  The coarsest such partition is
computed by compound-block splitting in the style of Paige & Tarjan (1987),
with the refinement interface of Wißmann, Dorsch, Milius & Schröder,
*Efficient and Modular Coalgebraic Partition Refinement* (LMCS 2020), and the
weighted splitting of Valmari & Franceschinis, *Simple O(m log n) Time Markov
Chain Lumping* (TACAS 2010).

One engine, ``_refine``, serves both minimization and the isomorphism
search of :mod:`coalgmin.wellpointed`.  It reads rows of a constant part and
(label, target, weight) edges over int state positions, and ``observe`` says
what it sees of a weight sum.  For minimization the rows are the functor's
``split``, made once per state as the engine reads them, with each target
as its carrier position and every weight multiplied by the functor's
``refinement_scale``: for weighted systems the least common multiple of
the denominators (1 for natural weights), found once per refinement.  So
the sums are exact ints.  A positive scale keeps equal sums equal and zero
sums zero, so the partition and the edge visits are those of the unscaled
weights.  An LCM past ``functors.REFINEMENT_SCALE_BITS`` bits gives scale
None, and the engine sums the weights as ``Fraction``.  The first partition
groups states by their constant and the observed per-label sums into the
whole carrier.  Blocks are then grouped into compound blocks, and
every block is stable with respect to every compound block: its members have
the same observed per-label sums into it.  While some compound block X holds
two blocks, the smaller of two of them, S, becomes a compound block of its
own, and only the edges into S are visited.  A predecessor x gets its sum
into S by addition and its sum into X minus S by subtraction, and its block
splits by the key (label, observe(sum into S), observe(sum into the rest)).
Entries whose sum into S observes as zero are left out, so a weighted sum
that cancels to 0 keys the same as no edge, and states that reach nothing in
S keep the empty key without a visit: their sums into the rest equal their
sums into X, which their block already shares.  A state lies in such an S at
most log2(n) times, so for n states and m edges refinement visits
O(m log n) edges, against O(sum of squared out-degrees times log n) for
re-evaluating whole signatures.  The global-round fixpoint is kept as
``oracles.naive_refinement``, the reference the differential tests use;
the brute-force enumeration of compatible partitions lives there too.

Every ``Coalgebra`` is valid when built, so nothing here validates, and the
engine's blocks are disjoint and cover the carrier, so the ``Partition`` is
built from them directly.  ``simple_quotient`` builds the quotient with
``core.apply_partition_quotient``, which checks every state's image against
its block's quotient structure.
"""

from __future__ import annotations

from itertools import chain

from .core import Coalgebra, Morphism, Partition, apply_partition_quotient


def _refine(n: int, rows, observe) -> tuple[list[set[int]], int]:
    """The coarsest stable partition of states 0 .. n-1, as sets of indices,
    and the edge visits: each edge once to build the first partition, plus
    each edge into a split-off block.  ``rows`` yields, once and in order,
    each state's constant part and (label, target index, weight) edges."""
    # The l-th label seen and a state or compound block x share one int key,
    # l * n + x; there are at most n compound blocks.  into[x] maps the key
    # of a compound block and label to x's summed weight into that block.
    label_keys: dict = {}
    preds: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    into: list[dict[int, object]] = []
    first: dict[object, list[int]] = {}
    visits = 0
    for x, (constant, edges) in enumerate(rows):
        visits += len(edges)
        sums: dict[int, object] = {}
        for label, y, w in edges:
            k = label_keys.get(label)
            if k is None:
                k = label_keys[label] = len(label_keys) * n
            preds[y].append((k + x, w))
            sums[k] = sums.get(k, 0) + w
        into.append(sums)  # compound block 0 is the whole carrier
        key = frozenset((k, o) for k, w in sums.items() if (o := observe(w)))
        first.setdefault((constant, key), []).append(x)
    members = [set(group) for group in first.values()]
    block_of = [0] * n
    for b, group in enumerate(first.values()):
        for x in group:
            block_of[x] = b
    compound_of = [0] * len(members)
    blocks_in = [list(range(len(members)))]
    worklist = [0] if len(members) > 1 else []
    while worklist:
        # Split S, the smaller of two blocks of X, off into a compound block.
        X = worklist.pop()
        parts = blocks_in[X]
        S = parts.pop()
        if len(members[S]) > len(members[parts[-1]]):
            S, parts[-1] = parts[-1], S
        if len(parts) > 1:
            worklist.append(X)
        own = len(blocks_in)
        blocks_in.append([S])
        compound_of[S] = own
        into_s: dict[int, object] = {}
        for y in members[S]:
            visits += len(preds[y])
            for k, w in preds[y]:
                into_s[k] = into_s.get(k, 0) + w
        entries: dict[int, list] = {}
        for k, w_s in into_s.items():
            x = k % n
            if len(members[block_of[x]]) == 1:
                continue  # a singleton never splits, so its sums are not needed
            label = k - x
            weights = into[x]
            rest = weights.pop(label + X, 0) - w_s
            if rest:
                weights[label + X] = rest
            if o := observe(w_s):
                weights[label + own] = w_s
                entries.setdefault(x, []).append((label, o, observe(rest)))
        split: dict[int, dict[frozenset, list[int]]] = {}
        for x, entry in entries.items():
            split.setdefault(block_of[x], {}).setdefault(frozenset(entry), []).append(x)
        for b, by_key in split.items():
            moved = list(by_key.values())
            if sum(map(len, moved)) == len(members[b]):
                # every member moves: the largest group keeps the block
                moved.remove(max(moved, key=len))
            compound = compound_of[b]
            for group in moved:
                new = len(members)
                members[b].difference_update(group)
                members.append(set(group))
                for x in group:
                    block_of[x] = new
                compound_of.append(compound)
                blocks_in[compound].append(new)
                if len(blocks_in[compound]) == 2:
                    worklist.append(compound)
    return members, visits


def _refinement_rows(spec, parts):
    """The :meth:`~coalgmin.functors.FunctorSpec.split` row of every state of
    the (coalgebra, index) parts in turn, each target as its position in the
    index and each weight times the functor's ``refinement_scale`` for all
    their structures, as an int; at scale None the weights stay as they are."""
    scale = spec.refinement_scale(chain.from_iterable(c.structure.values() for c, _ in parts))
    splits = ((spec.split(c.structure[s]), index) for c, index in parts for s in c.states)
    if scale is None:
        return (
            (constant, [(l, index[s], w) for l, s, w in out]) for (constant, out), index in splits
        )
    return (
        (constant, [(l, index[s], w.numerator * (scale // w.denominator)) for l, s, w in out])
        for (constant, out), index in splits
    )


def behavioural_classes(c: Coalgebra) -> Partition:
    """The partition of the carrier into behavioural equivalence classes."""
    spec = c.functor
    states = c.states
    rows = _refinement_rows(spec, [(c, c.state_index())])
    members, _ = _refine(len(states), rows, spec.observe)
    return Partition(tuple(sorted(tuple(sorted([states[i] for i in m])) for m in members)))


def simple_quotient(c: Coalgebra) -> tuple[Coalgebra, Morphism, Partition]:
    """The greatest quotient of c: merge exactly the behaviourally equal states.

    Returns the quotient (pointed at the class of the point when c is
    pointed), the projection morphism,
    and the underlying partition.  Quotienting the result again is the
    identity up to state naming, since its partition is discrete.
    """
    partition = behavioural_classes(c)
    quotient, projection = apply_partition_quotient(c, partition)
    return quotient, projection, partition


def is_simple(c: Coalgebra) -> bool:
    """True iff all states are pairwise behaviourally inequivalent."""
    return behavioural_classes(c).is_discrete
