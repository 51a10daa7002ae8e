"""Brute-force reference semantics for k-equivalence closure.

Saturates the hypothesis atoms under the relation laws over an explicit
finite universe.  Closure happens at the level of jointly-related term
sets: two derived sets fuse whenever their intersection spans at least k
distinctness classes (k shared terms that are known pairwise distinct
anchor a transitivity step in every model), and a query holds when its
terms collapse to at most k or sit inside one derived set.  The fixpoint
is computed by a quadratic pairwise scan with none of the engine's
incremental bookkeeping, which is what makes it a useful cross-check.

`saturate` additionally materializes the relation the naive way, as the
full set of derivable (k+1)-atoms over the universe; that enumeration is
the exponential-in-k representation the engine exists to avoid.

Distinctness semantics: terms in different partition classes are known
distinct, terms sharing a class are merely *possibly* equal.  Hence a
tuple is sub-reflexive only when it literally repeats a term, and fusion
anchors must span k distinct classes.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MAX_UNIVERSE",
    "MAX_ATOM_TERMS",
    "closure_sets",
    "covered",
    "saturate",
    "oracle_entailed",
    "minimal_supports",
]

MAX_UNIVERSE = 12
# `saturate` enumerates C(|universe| + k, k + 1) candidate (k+1)-tuples;
# this bounds the term ids they hold in all, so a huge k alone is refused too
MAX_ATOM_TERMS = 10**6


def _class_fn(partition: Mapping[int, int] | None):
    if partition is None:
        return lambda t: t
    return lambda t: partition.get(t, ("singleton", t))


def closure_sets(
    k: int,
    hypotheses: Sequence[Sequence[int]],
    partition: Mapping[int, int] | None = None,
) -> set[frozenset[int]]:
    """Maximal jointly-related term sets derivable from the hypotheses.

    Repeatedly fuses any two sets whose intersection spans at least k
    distinctness classes until no pair does.  Hypotheses that collapse to
    at most k distinct terms are vacuous and contribute nothing.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    cls = _class_fn(partition)
    family = [frozenset(h) for h in hypotheses if len(set(h)) > k]
    changed = True
    while changed:
        changed = False
        fused: list[frozenset[int]] = []
        for s in family:
            for i, t in enumerate(fused):
                shared = s & t
                if len({cls(x) for x in shared}) >= k:
                    fused[i] = t | s
                    changed = True
                    break
            else:
                fused.append(s)
        family = fused
    return set(family)


def covered(
    k: int, terms: Iterable[int], family: Iterable[frozenset[int]]
) -> bool:
    """Whether a term tuple holds given a closed family of derived sets."""
    s = set(terms)
    if len(s) <= k:
        return True
    return any(s <= f for f in family)


def saturate(
    k: int,
    hypotheses: Sequence[Sequence[int]],
    universe: Iterable[int],
    partition: Mapping[int, int] | None = None,
) -> frozenset[tuple[int, ...]]:
    """All derivable (k+1)-atoms over `universe`, as sorted tuples.

    Includes the sub-reflexive atoms (any tuple repeating a term) plus
    every (k+1)-subset of a derived set.  Guarded to small universes; the
    output size is what grows exponentially in k.
    """
    universe = sorted(set(universe))
    if len(universe) > MAX_UNIVERSE:
        raise ValueError(f"universe larger than {MAX_UNIVERSE} terms")
    # combinations_with_replacement allocates k+1 indices even for no terms
    if (k + 1) * max(1, math.comb(len(universe) + k, k + 1)) > MAX_ATOM_TERMS:
        raise ValueError(f"candidate atoms would hold over {MAX_ATOM_TERMS} terms")
    members = set(universe)
    for h in hypotheses:
        if not set(h) <= members:
            raise ValueError("hypothesis mentions a term outside the universe")
    out: set[tuple[int, ...]] = set()
    for combo in itertools.combinations_with_replacement(universe, k + 1):
        if len(set(combo)) <= k:
            out.add(combo)
    for f in closure_sets(k, hypotheses, partition):
        for combo in itertools.combinations(sorted(f), k + 1):
            out.add(combo)
    return frozenset(out)


def oracle_entailed(
    k: int,
    hypotheses: Sequence[Sequence[int]],
    query: Iterable[int],
    universe: Iterable[int],
    partition: Mapping[int, int] | None = None,
) -> bool:
    """Whether the hypotheses entail joint relatedness of `query`.

    Queries of any size are accepted: a set of at most k terms holds
    trivially, a larger one holds when one derived set covers it.
    """
    universe = set(universe)
    if len(universe) > MAX_UNIVERSE:
        raise ValueError(f"universe larger than {MAX_UNIVERSE} terms")
    return covered(k, query, closure_sets(k, hypotheses, partition))


def minimal_supports(
    k: int,
    hypotheses: Sequence[Sequence[int]],
    query: Iterable[int],
    partition: Mapping[int, int] | None = None,
) -> list[frozenset[int]]:
    """All minimal hypothesis subsets (by index) that entail `query`.

    Returns an antichain of index sets; `[frozenset()]` when the query
    holds with no hypotheses at all.  Power-set enumeration, so guarded to
    at most 8 hypotheses.
    """
    hyps = [tuple(h) for h in hypotheses]
    if len(hyps) > 8:
        raise ValueError("minimal_supports is limited to 8 hypotheses")
    query = set(query)

    def entails(indices: tuple[int, ...]) -> bool:
        family = closure_sets(k, [hyps[i] for i in indices], partition)
        return covered(k, query, family)

    minimal: list[frozenset[int]] = []
    for r in range(len(hyps) + 1):
        for combo in itertools.combinations(range(len(hyps)), r):
            combo_set = frozenset(combo)
            if any(m <= combo_set for m in minimal):
                continue
            if entails(combo):
                minimal.append(combo_set)
    return minimal
