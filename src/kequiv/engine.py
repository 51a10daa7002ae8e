"""Incremental closure engine for k-equivalence relations.

A session tracks one (k+1)-ary relation that behaves like equality
generalized to k anchor points (k=1 plain equivalence, k=2 collinearity,
k=3 cocyclicity).  Facts are stored as *k-sets*: term sets whose
(k+1)-subsets all stand in the relation.  Asserting a hypothesis adds a
k-set and fuses it with any active k-set it overlaps on at least k
known-distinct terms, so the active k-sets always overlap pairwise on
fewer than k distinctness classes.  Sessions share one `Equalities`
object, as they share the `TermTable`; a k-set renamed to representatives
records only (old, representative) pairs, which `explain` expands along
the proof forest.

Storage.  Every record of the merge history stays in `history`, indexed
by k-set id, so proofs can be extracted later, but only active k-sets
hold a term set: one mutable *live set* per lineage, named by a handle
(`handles[id]`).  `term2parents` maps each term to the handle of the one
live set holding it, bare, or to a set of the handles of two or more
(`parents_of` reads both); `owner` maps a handle to its active k-set: a
k-set is active exactly when `owner` maps its handle back to it.  The
`TermTable` may adopt a parsed problem's name list and name -> id map
(`TermTable.from_names`), so the names are stored once.  `class_of` is
the root map of the partition's `UnionFind`, so a class label is its
root's id.  A `UnionFind` relabels the smaller class on a union, and its
`find`, the equalities' too, is one dict read that writes nothing, so
queries leave the session untouched.  Each fact makes one record.  A
hypothesis is stored on its representatives; its `Asserted` record keeps
the (term, representative) pairs of the terms equalities had retired.  A
merge absorbs the smaller side into the larger side's live set (union by
size, Tarjan-style; a tie absorbs the newer side) and re-registers only
the absorbed terms; its `Merged` record keeps the anchor the two sides
share, as a tuple (56 B for 2 terms, a frozenset's 216 B), and the
absorbed terms: as a frozenset only when two or more of them were not in
the anchor, else as that one term, a bare id (-1 when none).  Most
merges add a hypothesis's one new term to a line, so most hold no set.  A
rename edits the live set in place; its `Rewritten` record keeps the one
(old, new) pair and whether the new term was already there.  `explain`
reads only these stored pieces, at each level one record's, the
proof-forest reading of the history (Nieuwenhuis & Oliveras, RTA 2005),
and `terms_of` an inactive k-set rebuilds its set on demand.  `ksets`
builds a `KSet` snapshot of each record when it is read.  The engine's
objects form no reference cycle, so reference counting frees all of them
and `kequiv` commands run with the cycle collector paused (a test
enforces this).  One walk extracts every proof and writes its text as it
goes, as a list of string pieces with every term named, which
`format_proof` only joins; that text is the proof, which `check` judges.

Cost.  Let M be the number of terms registered by hypotheses and renames
(at most k+1 per hypothesis plus one per rename).  An absorbed term
moves into a set at least twice the size of the one it left, so it is
re-registered O(log M) times; a rename that collapses two terms shrinks
its set by one, which gives the s members back at most s*log2(s/(s-1))
<= 2 doublings in all.  So merges re-register O(M log M) terms in total,
and that bounds their time and the terms the records store.  Candidate
matches are searched only where one can be: for a new hypothesis, among
the parents of the |classes|-k+1 classes with the fewest parent entries
(pigeonhole); after a rename, among the new term's parents; after a
merge, among the parents of the fused set minus the merged piece with
the fewest parent entries; each candidate is verified in
min(|candidate|, |fused|).  The chain, the pencil and the equality chain
thus assert in O(M log M).  The constant work is one record (`Asserted`)
and one registration pass over its terms per hypothesis, plus a rename
scan only once an equality has joined two terms (a renamed hypothesis
registers only its representatives), one record (`Merged`, with no set
when at most one term moved) and one pass over the absorbed terms per
merge, and one record (`Rewritten`) per k-set a rename edits; a proof
level reads one record, a bare id by one membership test.  Worst case, a
term on many lines is still read whole: a hypothesis all of whose
classes hold such hubs, or a rename into one, reads their parent lists,
and a candidate that shares fewer than k classes costs its full size, so
a sequence of such asserts can take quadratic time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Collection, Hashable, Iterable, Mapping
from typing import NamedTuple, Sequence

__all__ = [
    "Asserted",
    "Merged",
    "Rewritten",
    "HistoryNode",
    "KSet",
    "Counters",
    "Stats",
    "EngineInvariantError",
    "UnionFind",
    "TermTable",
    "Equalities",
    "Session",
]


@dataclass(slots=True)
class Asserted:
    """The k-set came from hypothesis `hyp_index`, renamed to representatives.

    `renames` holds the (term, representative) pairs of the hypothesis's
    terms that equalities had retired when it was asserted, in ascending
    term order; it is empty when the hypothesis named none.
    """

    hyp_index: int
    renames: tuple[tuple[int, int], ...] = ()


@dataclass(slots=True)
class Merged:
    """The k-set is the union of two earlier k-sets (both ids smaller).

    The other fields record storage, not the proof, and stay out of `==`
    and `repr`: the side whose terms were absorbed into the other's live
    set, those terms, and the `anchor` the two sides share, a tuple of its
    distinct terms in no particular order.  When at most one absorbed term
    is not in the anchor, `absorbed_terms` is that term alone, a bare id
    (-1 when none) that stands for the anchor plus it.
    """

    left: int
    right: int
    absorbed: int = field(default=-1, compare=False, repr=False)
    absorbed_terms: frozenset[int] | int = field(default=-1, compare=False, repr=False)
    anchor: tuple[int, ...] = field(default=(), compare=False, repr=False)


@dataclass(slots=True)
class Rewritten:
    """The k-set is k-set `source` with `old` renamed to its representative.

    `already` records whether `new` was in the source set, so the set
    lost a term (True) or swapped one (False).
    """

    source: int
    old: int
    new: int
    already: bool


HistoryNode = Asserted | Merged | Rewritten

# the kinds of `Session._explain`'s tasks
_EXPLAIN, _FUSE, _REWRAP = 0, 1, 2


class KSet(NamedTuple):
    """A snapshot of k-set `id`: its record, whether it is active, and its
    terms (see `Session.terms_of`)."""

    id: int
    history: HistoryNode
    active: bool
    terms: frozenset[int]


@dataclass
class Counters:
    """The counts a session keeps as it runs: those no structure holds."""

    merges: int = 0
    find_merges_calls: int = 0
    # hypotheses renamed as they are asserted plus k-sets renamed in place
    rewrites: int = 0
    # a renamed hypothesis counts its representatives, not its raw terms
    max_kset_size: int = 0
    max_parents: int = 0
    # additions of a (term, live set) pair to `term2parents`
    registrations: int = 0


@dataclass
class Stats(Counters):
    """A session's instrumentation counters, as `Session.stats()` returns
    them: a copy of `Session.counters`, and the numbers of hypotheses and
    of active k-sets, read off the session."""

    hypotheses: int = 0
    active: int = 0


class EngineInvariantError(AssertionError):
    """An engine bug; raised rather than asserted, so `python -O` keeps it."""


class UnionFind:
    """Union-find by size that relabels the smaller class (quick-find):
    `find` is one read of `root`, in which an absent element is its own
    root, and writes nothing.  `members` lists each class of two or more."""

    def __init__(self) -> None:
        self.root: dict[int, int] = {}
        self.members: dict[int, list[int]] = {}

    def find(self, x: int) -> int:
        return self.root.get(x, x)

    def union(self, a: int, b: int) -> tuple[int, list[int]] | None:
        """Merge the classes of a and b; the smaller one moves, b's on a tie.

        Returns (surviving root, members that changed root), or None when
        already together.
        """
        root, members = self.root, self.members
        ra, rb = root.get(a, a), root.get(b, b)
        if ra == rb:
            return None
        kept, moved = members.get(ra, [ra]), members.get(rb, [rb])
        if len(kept) < len(moved):
            ra, rb, kept, moved = rb, ra, moved, kept
        for x in moved:
            root[x] = ra
        kept += moved
        members[ra] = kept
        members.pop(rb, None)
        return ra, moved


class TermTable:
    """Term names to dense ids and back, plus the distinctness partition.

    `class_of` maps each term id to its class's label: terms in one class
    are possibly equal, terms in different classes are known distinct.  It
    is the root map of the partition's `UnionFind`, so a label is its
    class's root id; a given `partition` may use any hashable labels.  One
    table may be shared by several sessions (see `CongruenceState`); the
    partition is fixed once any of them has logged a fact.
    """

    def __init__(self, partition: Mapping[int, Hashable] | None = None):
        self.term_ids: dict[str, int] = {}
        self.term_names: list[str] = []
        self._classes = UnionFind()
        self.class_of = self._classes.root
        self.fixed = False
        first: dict[Hashable, int] = {}
        for t, c in (partition or {}).items():
            self.class_of[t] = t
            self._classes.union(first.setdefault(c, t), t)

    @classmethod
    def from_names(cls, term_names: list[str], term_ids: dict[str, int]) -> TermTable:
        """A table that adopts a numbered name list and its name -> id map,
        not copies, with each term in its own class, labelled by its id."""
        table = cls()
        table.term_names, table.term_ids = term_names, term_ids
        table.class_of.update(zip(term_ids.values(), term_ids.values()))
        return table

    def intern_term(self, name: str) -> int:
        """Map a name to a dense term id, idempotently."""
        tid = self.term_ids.get(name)
        if tid is None:
            tid = len(self.term_names)
            self.term_ids[name] = tid
            self.term_names.append(name)
            self.class_of.setdefault(tid, tid)
        return tid

    def mark_possibly_equal(self, terms: Iterable[int]) -> None:
        """Collapse the distinctness classes of `terms` into one.

        Terms in one class are treated as possibly equal, so they never
        count as distinct anchors.
        """
        if self.fixed:
            raise ValueError("the distinctness partition is fixed once facts exist")
        terms = list(terms)
        for t in terms:
            if t not in self.class_of:
                raise ValueError(f"unknown term id {t}")
        for t in terms[1:]:
            self._classes.union(terms[0], t)


class Equalities(Sequence[tuple[int, int]]):
    """The equality log of (a, b) pairs, with its union-find and proof forest.

    `find` reads a term's representative, its class's root, from the
    union-find's map `root`, where a term absent is its own, and writes
    nothing.  The equalities that merged two classes form a proof forest
    (Nieuwenhuis & Oliveras, RTA 2005), each tree rooted at its union-find
    representative.  Unions only add edges and re-rooting only flips them,
    so the path between two joined terms never changes.  The log is
    read-only from outside: `union` is the one way in, so the log, the
    union-find and the forest stay in step.
    """

    def __init__(self) -> None:
        self._log: list[tuple[int, int]] = []
        self._uf = UnionFind()
        self.find, self.root = self._uf.find, self._uf.root
        # term -> its step up, (term, parent, equality index); roots are absent
        self.forest: dict[int, tuple[int, int, int]] = {}

    def union(self, a: int, b: int) -> int | None:
        """Log a = b; return the representative it retires, or None."""
        self._log.append((a, b))
        ra, rb = self.find(a), self.find(b)
        union = self._uf.union(a, b)
        if union is None:
            return None
        # re-root the moved tree at its endpoint, so the merged tree stays
        # rooted at the surviving representative
        child, parent, old = (b, a, rb) if union[0] == ra else (a, b, ra)
        edge = self.forest.get(child)
        self.forest[child] = (child, parent, len(self) - 1)
        while edge is not None:
            _, parent, i = edge
            edge = self.forest.get(parent)
            self.forest[parent] = (parent, child, i)
            child = parent
        return old

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, i):
        return self._log[i]

    def path(self, a: int, b: int) -> list[tuple[int, int, int]]:
        """The (old, new, equality index) steps along the forest from a to b."""
        up, down = self._to_root(a), self._to_root(b)
        if (up[-1][1] if up else a) != (down[-1][1] if down else b):
            raise EngineInvariantError("no equality path between renamed terms")
        # the walks share the stretch from where they meet up to the root
        while up and down and up[-1] == down[-1]:
            up.pop()
            down.pop()
        return up + [(new, old, e) for old, new, e in reversed(down)]

    def _to_root(self, t: int) -> list[tuple[int, int, int]]:
        forest, steps = self.forest, []
        while t in forest:
            step = forest[t]
            steps.append(step)
            t = step[1]
        return steps


class Session:
    """State for one relation.  Single writer; queries are read-only.

    A session may be handed between threads but must never be mutated
    concurrently; read-only operations on a quiescent session are safe to
    run in parallel.
    """

    def __init__(self, k: int, partition: Mapping[int, Hashable] | None = None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = k
        self.hypotheses: list[tuple[int, ...]] = []
        # k-set id -> its history record, and -> the handle of its live set
        self.history: list[HistoryNode] = []
        self.handles: list[int] = []
        # term -> the handle of its one live set, or a set of two or more
        self.term2parents: dict[int, int | set[int]] = {}
        # handle -> live term set, and handle -> the active record owning it
        self.live: dict[int, set[int]] = {}
        self.owner: dict[int, int] = {}
        # both shared with a congruence layer when one manages this session
        self.terms = TermTable(partition)
        self.equalities = Equalities()
        self.counters = Counters()

    @property
    def ksets(self) -> list[KSet]:
        """A snapshot of each k-set, built anew on each read."""
        owner, handles, terms_of = self.owner, self.handles, self.terms_of
        return [
            KSet(n, h, owner.get(handles[n]) == n, frozenset(terms_of(n)))
            for n, h in enumerate(self.history)
        ]

    # ------------------------------------------------------------------
    # terms and the distinctness partition

    @property
    def term_names(self) -> list[str]:
        return self.terms.term_names

    @property
    def class_of(self) -> dict[int, int]:
        return self.terms.class_of

    def intern_term(self, name: str) -> int:
        return self.terms.intern_term(name)

    def mark_possibly_equal(self, terms: Iterable[int]) -> None:
        self.terms.mark_possibly_equal(terms)

    # ------------------------------------------------------------------
    # assertion and saturation

    def assert_hypothesis(self, xs: Sequence[int]) -> int:
        """Assert that the k+1 terms `xs` stand in the relation.

        Duplicate entries are allowed; the tuple is collapsed to a set, and
        terms are renamed to their representatives before merging.  Returns
        the hypothesis index.  On return all active k-sets again overlap
        pairwise on fewer than k distinctness classes.
        """
        xs = tuple(xs)
        if len(xs) != self.k + 1:
            raise ValueError(
                f"hypothesis needs exactly {self.k + 1} terms, got {len(xs)}"
            )
        n_terms = len(self.terms.term_names)
        if min(xs) < 0 or max(xs) >= n_terms:
            bad = next(x for x in xs if not 0 <= x < n_terms)
            raise ValueError(f"unknown term id {bad}")
        self.terms.fixed = True
        i = len(self.hypotheses)
        self.hypotheses.append(xs)
        terms, history = xs, Asserted(i)
        # an empty forest means no equality joined two terms: nothing to rename
        if self.equalities.forest:
            find = self.equalities.find
            renames = tuple((t, r) for t in sorted(set(xs)) if (r := find(t)) != t)
            if renames:
                terms, history = map(find, xs), Asserted(i, renames)
                self.counters.rewrites += 1
        self._find_merges(self._new_kset(terms, history))
        self.check_counter_bounds()
        return i

    def rename_term(self, old: int) -> None:
        """`old` stopped being a representative: rename it in its k-sets.

        Active k-sets hold only representatives, and `old` was one until
        the last union, so it is their one renamed term.  Each is renamed
        in place, in ascending id order, under a one-pair `Rewritten`
        record, then each result still active is re-merged.  Raises
        ValueError, editing nothing, when `old` is still a representative.
        """
        new = self.equalities.find(old)
        if new == old:
            raise ValueError(f"term {old} is still its own representative")
        history, handles, owner = self.history, self.handles, self.owner
        live, parents, c = self.live, self.term2parents, self.counters
        rewritten = []
        for kid in sorted(owner[h] for h in self.parents_of(old)):
            handle = handles[kid]
            terms = live[handle]
            already = new in terms
            terms.discard(old)
            if not already:
                terms.add(new)
                ps = parents.setdefault(new, handle)
                if type(ps) is not int:
                    ps.add(handle)
                elif ps != handle:
                    parents[new] = {ps, handle}
                c.registrations += 1
            n = len(history)
            history.append(Rewritten(kid, old, new, already))
            handles.append(handle)
            owner[handle] = n
            rewritten.append(n)
        parents.pop(old, None)
        if rewritten:
            c.rewrites += len(rewritten)
            c.max_parents = max(c.max_parents, len(self.parents_of(new)))
        for n in rewritten:
            if owner.get(handles[n]) == n:
                self._find_merges(n, new)
        self.check_counter_bounds()

    def _new_kset(self, terms: Iterable[int], history: HistoryNode) -> int:
        """Append an active k-set record with a new live set of `terms`."""
        terms = set(terms)
        n = len(self.history)
        self.history.append(history)
        self.handles.append(n)
        self.live[n] = terms
        self.owner[n] = n
        parents = self.term2parents
        c = self.counters
        top = max(c.max_parents, 1)
        for x in terms:
            ps = parents.setdefault(x, n)
            if type(ps) is int:
                if ps == n:
                    continue
                parents[x] = ps = {ps, n}
            else:
                ps.add(n)
            if len(ps) > top:
                top = len(ps)
        c.max_parents = top
        c.registrations += len(terms)
        if len(terms) > c.max_kset_size:
            c.max_kset_size = len(terms)
        return n

    def parents_of(self, t: int) -> Collection[int]:
        """The handles of the live sets holding term `t`; do not modify."""
        ps = self.term2parents.get(t, ())
        return (ps,) if type(ps) is int else ps

    def _find_merges(self, n: int, renamed: int | None = None) -> None:
        """Fuse k-set `n` with every active k-set it overlaps on >= k classes.

        Repeats on the fused result until no overlap remains, merging each
        round's matches in ascending id order.  Candidates come only from
        where a match can be (see the module docstring): when `renamed`
        just replaced a term of `n`, from its parents, in every round, as
        other k-sets renamed alongside may now overlap on it; otherwise by
        pigeonhole over n's classes, then from the fused set.
        """
        h = self.handles[n]
        fused = self.live[h]
        parents_of, live, owner = self.parents_of, self.live, self.owner
        k, classes_of = self.k, self.terms.class_of.__getitem__
        candidates = self._pigeonhole(fused) if renamed is None else parents_of(renamed)
        history, handles, counters = self.history, self.handles, self.counters
        while True:
            counters.find_merges_calls += 1
            # a match shares terms of at least k classes with the fused set;
            # `&` walks the smaller side, so each check costs the smaller size
            matches = []
            for m in candidates:
                if m != h:
                    shared = live[m] & fused
                    if len(shared) >= k and len(set(map(classes_of, shared))) >= k:
                        matches.append(owner[m])
            if not matches:
                return
            matches.sort()
            added: list[int] = []
            pieces: list[AbstractSet[int]] = []
            for i, m in enumerate(matches):
                n, piece, moved = self._merge(m, n)
                if handles[n] != h:  # the fused set was absorbed by a larger match
                    h, fused, added = handles[n], live[handles[n]], []
                added += moved
                if i == 0 or history[n].absorbed == m:
                    pieces.append(piece)
            candidates = self._fused_candidates(fused, added, pieces)
            if renamed is not None:
                candidates.update(parents_of(renamed))

    def _pigeonhole(self, terms: AbstractSet[int]) -> set[int]:
        """Handles of the live sets that may share k classes with `terms`.

        A match shares k of the c classes of `terms`, so it touches any
        c-k+1 of them: take those with the fewest parent entries.
        """
        class_of = self.terms.class_of
        parents = self.term2parents
        load: dict[int, int] = {}
        for t in terms:
            c, ps = class_of[t], parents[t]
            load[c] = load.get(c, 0) + (1 if type(ps) is int else len(ps))
        spare = len(load) - self.k + 1
        if spare <= 0:
            return set()
        chosen = set(sorted(load, key=load.__getitem__)[:spare])
        out: set[int] = set()
        for t in terms:
            if class_of[t] in chosen:
                if type(ps := parents[t]) is int:
                    out.add(ps)
                else:
                    out |= ps
        return out

    def _fused_candidates(
        self,
        fused: AbstractSet[int],
        added: list[int],
        pieces: list[AbstractSet[int]],
    ) -> set[int]:
        """Handles of the live sets that may share k classes with `fused`.

        Every other active k-set shares fewer than k classes with each
        merged piece, so a match touches fused minus any one piece.  The
        pieces are the live set the round added to (`added` is fused minus
        it) and each one absorbed whole; take the difference with the
        fewest parent entries, counting each lazily past the best so far.
        """
        parents = self.term2parents
        best_terms: list[int] = added
        best = 0
        for t in added:
            best += 1 if type(ps := parents[t]) is int else len(ps)
        for piece in pieces:
            total = 0
            terms = []
            for t in fused:
                if t not in piece:
                    total += 1 if type(ps := parents[t]) is int else len(ps)
                    if total >= best:
                        break
                    terms.append(t)
            else:
                best_terms, best = terms, total
        out: set[int] = set()
        for t in best_terms:
            if type(ps := parents[t]) is int:
                out.add(ps)
            else:
                out |= ps
        return out

    def _merge(self, i1: int, i2: int) -> tuple[int, set[int], set[int]]:
        """Replace two active k-sets by their union.

        `_find_merges` passes two distinct active k-sets that share terms of
        k classes.  The smaller side's terms are absorbed into the larger
        side's live set (on a tie, the newer side's), so only they are
        re-registered.  Returns the new id, the absorbed side's terms and
        those of them not in the anchor, which the merge moved; a frozenset
        of the absorbed side is built only when it moved two or more.
        """
        history, handles, owner = self.history, self.handles, self.owner
        ha, hb = handles[i1], handles[i2]
        live = self.live
        ta, tb = live[ha], live[hb]
        if len(ta) < len(tb) or len(ta) == len(tb) and i1 > i2:
            small, gone, handle, absorbed, into = i1, ha, hb, ta, tb
        else:
            small, gone, handle, absorbed, into = i2, hb, ha, tb, ta
        anchor = absorbed & into
        if len(set(map(self.terms.class_of.__getitem__, anchor))) < self.k:
            raise EngineInvariantError(
                f"merge needs {self.k} distinctness classes in the overlap"
            )
        del live[gone], owner[gone]
        # the absorbed terms leave `gone`; those not in the anchor join `handle`
        parents = self.term2parents
        moved = absorbed - anchor
        for x in moved:
            ps = parents[x]
            if type(ps) is int:
                parents[x] = handle
            else:
                ps.discard(gone)
                ps.add(handle)
        for x in anchor:
            ps = parents[x]
            ps.discard(gone)
            if len(ps) == 1:
                parents[x] = ps.pop()
        into |= moved
        n = len(history)
        stored = frozenset(absorbed) if len(moved) > 1 else next(iter(moved), -1)
        history.append(Merged(i1, i2, small, stored, tuple(anchor)))
        handles.append(handle)
        owner[handle] = n
        c = self.counters
        c.registrations += len(absorbed) - len(anchor)
        c.merges += 1
        if len(into) > c.max_kset_size:
            c.max_kset_size = len(into)
        return n, absorbed, moved

    # ------------------------------------------------------------------
    # queries

    def terms_of(self, n: int) -> AbstractSet[int]:
        """The terms of k-set `n`.

        For an active record this is its live set itself, which callers
        must not modify.  An inactive one is rebuilt from the history: down
        renames and the larger side of each merge to a renamed hypothesis,
        then adding back the absorbed sides and renames on the way up.
        """
        if not 0 <= n < len(self.history):
            raise ValueError(f"unknown k-set id {n}")
        handle = self.handles[n]
        if self.owner.get(handle) == n:
            return self.live[handle]
        layers: list[HistoryNode] = []
        h = self.history[n]
        while not isinstance(h, Asserted):
            layers.append(h)
            if isinstance(h, Rewritten):
                n = h.source
            else:
                n = h.right if h.absorbed == h.left else h.left
            h = self.history[n]
        rename = dict(h.renames).get
        terms = {rename(t, t) for t in self.hypotheses[h.hyp_index]}
        for h in reversed(layers):
            if isinstance(h, Merged):
                # a bare id needs no anchor: the other side holds it
                side = h.absorbed_terms
                terms |= {side} - {-1} if type(side) is int else side
            else:
                terms.discard(h.old)
                terms.add(h.new)
        return frozenset(terms)

    def resolve_query(self, xs: Iterable[int]) -> list[str] | None:
        """Decide whether the terms `xs` are jointly related.

        Returns a checkable proof of the terms' representatives when they
        are, as the pieces of its text with every term named, which
        `format_proof` joins; None when they are not.  Any number of terms
        is accepted; duplicates collapse.  A term id that was never
        interned raises ValueError, as in `assert_hypothesis`.  The
        session is left untouched.
        """
        xs = tuple(xs)
        root = self.equalities.root
        s = frozenset(map(root.get, xs, xs))
        if not s:
            raise ValueError("empty query")
        lo, hi = min(s), max(s)
        if lo < 0 or hi >= len(self.term_names):
            raise ValueError(f"unknown term id {lo if lo < 0 else hi}")
        if len(s) <= self.k:
            names = self.term_names
            return ["(subrefl " + " ".join([names[t] for t in sorted(s)]) + ")"]
        parents = list(map(self.term2parents.get, s))
        if None in parents:
            return None
        # a term with one parent leaves that live set the one candidate
        for ps in parents:
            if type(ps) is int:
                common = (ps,) if s <= self.live[ps] else ()
                break
        else:
            common = set(min(parents, key=len)).intersection(*parents)
        if not common:
            return None
        # a proof that is one hypothesis needs no `project`: the hypothesis
        # holds s, of more than k terms, and has at most k+1 terms
        return self._explain(min(self.owner[h] for h in common), s)

    def explain(self, n: int, xs: Iterable[int]) -> list[str]:
        """Extract a compact proof that k-set `n` covers the terms `xs`, as
        the pieces of its text, like `resolve_query`.

        The conclusion is a superset of `xs` when the walk bottoms out in a
        single hypothesis, and exactly `xs` otherwise.
        """
        if not 0 <= n < len(self.history):
            raise ValueError(f"unknown k-set id {n}")
        s = frozenset(xs)
        if not s:
            raise ValueError("empty term set")
        if not s <= self.terms_of(n):
            raise ValueError(f"terms are not covered by k-set {n}")
        return self._explain(n, s)

    def _explain(self, n: int, xs: frozenset[int]) -> list[str]:
        # The one proof walk: it writes the proof text as a list of pieces
        # in order.  Explicit work stack: merge chains (and hence proofs)
        # can be far deeper than the interpreter's recursion limit.  Each
        # level reads only the small sets a record stores, never a rebuilt
        # k-set.  A proof concludes the terms asked of it, except a bare
        # `(assume N)`, which concludes its hypothesis's terms.  A task is
        # (kind, a, b): (_EXPLAIN, record, terms), (_FUSE, None, the text
        # closing the fuse) or (_REWRAP, steps, (terms, terms asked of the
        # source or None under a hypothesis, slot of its opener)).  A fuse's
        # closer is written as it is pushed, and a right side that is a
        # bare hypothesis is written into it, in place of its _EXPLAIN.
        history, hypotheses, path = self.history, self.hypotheses, self.equalities.path
        names = self.terms.term_names
        tasks: list[tuple] = []
        out: list[str] = []
        # the hypothesis whose bare `(assume N)` ends `out`, else -1
        hyp = -1
        while True:
            # explain record n, continuing down one side of a merge
            h = history[n]
            cls = type(h)
            if cls is Merged:
                # xs lies in the union; the absorbed side holds the part in
                # it, the other side the rest, and both hold the anchor, a
                # tuple never copied into a set of its own; `left` is what the
                # left side is asked, `right` what the right side is besides
                # the anchor, built into a set only if that side is explained
                absorbed, anchor = h.absorbed_terms, h.anchor
                if type(absorbed) is int:
                    # the absorbed side is the anchor plus the term `absorbed`
                    if absorbed not in xs:
                        n = (
                            h.left
                            if h.absorbed == h.right
                            or len(xs) <= len(anchor) and not xs.difference(anchor)
                            else h.right
                        )
                        continue
                    # the other side is asked the anchor and the rest of xs
                    other = {*xs, *anchor}
                    other.discard(absorbed)
                    if len(other) == len(anchor):  # xs lies in the absorbed side
                        n = h.absorbed
                        continue
                    if h.absorbed == h.left:
                        left, right = {*anchor, absorbed}, other
                    else:
                        left, right = other, (absorbed,)
                elif h.absorbed == h.left:
                    if len(inside := xs & absorbed) == len(xs):
                        n = h.left
                        continue
                    if not inside.difference(anchor):
                        n = h.right
                        continue
                    left, right = {*inside, *anchor}, xs - absorbed
                else:
                    if not (inside := xs & absorbed).difference(anchor):
                        n = h.left
                        continue
                    if len(inside) == len(xs):
                        n = h.right
                        continue
                    left, right = {*(xs - absorbed), *anchor}, inside
                out.append("(project (trans ")
                named = " ".join([names[t] for t in sorted(xs)])
                r = history[h.right]
                if type(r) is Asserted and not r.renames:
                    # its proof is the bare hypothesis, whatever is asked
                    closer = f" (assume {r.hyp_index})) {named})"
                    tasks.append((_FUSE, None, closer))
                else:
                    tasks.append((_FUSE, None, f") {named})"))
                    tasks.append((_EXPLAIN, h.right, {*right, *anchor}))
                n, xs = h.left, left
                continue
            if cls is Rewritten:
                # xs lies in the renamed set, which differs from the source
                # only by the pair: ask the source for xs's preimage
                old, new = h.old, h.new
                asked = xs
                if new in xs:
                    asked = (xs if h.already else xs - {new}) | {old}
                tasks.append((_REWRAP, path(old, new), (xs, asked, len(out))))
                out.append("")
                n, xs = h.source, asked
                continue
            # an Asserted record: the hypothesis, renamed along its pairs' paths
            if h.renames:
                steps = [step for pair in h.renames for step in path(*pair)]
                tasks.append((_REWRAP, steps, (xs, None, len(out))))
                out.append("")
            out.append(f"(assume {h.hyp_index})")
            hyp = h.hyp_index
            # the walk reached a hypothesis: finish the tasks it completes
            while tasks:
                kind, a, b = tasks.pop()
                if kind == _FUSE:
                    out.append(b)
                    hyp = -1
                elif kind == _EXPLAIN:
                    out.append(" ")
                    n, xs = a, b
                    break
                else:  # _REWRAP
                    xs, asked, slot = b
                    if hyp >= 0:
                        asked = hypotheses[hyp]
                    current = set(asked)
                    top = len(out)
                    for old, new, e in a:
                        if old in current:
                            out.append(f" {names[old]} {names[new]} {e})")
                            current.discard(old)
                            current.add(new)
                    out[slot] = "(subst " * (len(out) - top)
                    if current != xs:
                        out.append(" " + " ".join([names[t] for t in sorted(xs)]) + ")")
                        out[slot] = "(project " + out[slot]
                    if len(out) > top:
                        hyp = -1
            else:
                return out

    def kfun_eq(self, x1: Iterable[int], x2: Iterable[int]) -> list[str] | None:
        """Decide whether two k-element anchor sets name the same object.

        The line through {a,b} equals the line through {c,d} exactly when
        all four points are jointly related, so this reduces to a query on
        the union, whose proof it returns as `resolve_query` does.
        """
        a, b = frozenset(x1), frozenset(x2)
        if len(a) != self.k or len(b) != self.k:
            raise ValueError(f"anchor sets must have exactly {self.k} terms")
        return self.resolve_query(a | b)

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> Stats:
        return Stats(
            **vars(self.counters),
            hypotheses=len(self.hypotheses),
            active=len(self.live),
        )

    def check_counter_bounds(self) -> None:
        """Cheap structural bounds; a violation means an engine bug."""
        c = self.counters
        n = len(self.hypotheses)
        if len(self.live) > n:
            raise EngineInvariantError("more active k-sets than hypotheses")
        if c.merges > max(0, n - 1):
            raise EngineInvariantError("merge count exceeded n-1")
        if c.find_merges_calls > 2 * (n + c.rewrites):
            raise EngineInvariantError("find_merges call bound exceeded")
        if c.max_kset_size > (self.k + n if n else 0):
            raise EngineInvariantError("k-set size bound exceeded")

    def validate(self) -> None:
        """Deep structural check, intended for tests (quadratic in actives).

        Checks the handle map, then replays the history bottom-up, from
        each hypothesis through every merge and rename, against what each
        record stores and against `terms_of`; then the parent map against
        the live sets, the pairwise overlap invariant of active k-sets, and
        the counter bounds.  Raises EngineInvariantError on the first
        violation.
        """
        handles, owner, live = self.handles, self.owner, self.live
        # each live set is owned by the latest k-set holding its handle
        latest = {h: n for n, h in enumerate(handles)}
        owners = {h: latest.get(h) for h in live}
        if len(handles) != len(self.history) or owner != owners:
            raise EngineInvariantError("handle map out of sync")
        replay: list[frozenset[int]] = []
        for n, h in enumerate(self.history):
            if isinstance(h, Asserted):
                rename = dict(h.renames).get
                terms = frozenset(rename(t, t) for t in self.hypotheses[h.hyp_index])
            elif (min(h.left, h.right) if isinstance(h, Merged) else h.source) < 0:
                raise EngineInvariantError(f"k-set {n} cites a negative k-set id")
            elif max(h.left, h.right) >= n if isinstance(h, Merged) else h.source >= n:
                raise EngineInvariantError(f"k-set {n} cites a later k-set")
            elif isinstance(h, Merged):
                left, right = replay[h.left], replay[h.right]
                terms, anchor = left | right, h.anchor
                # `_explain` counts the anchor's terms by its length
                if type(anchor) is not tuple or len(set(anchor)) != len(anchor):
                    raise EngineInvariantError(
                        f"k-set {n} stores its anchor in the wrong form"
                    )
                if set(anchor) != left & right:
                    raise EngineInvariantError(f"k-set {n} stores a wrong anchor")
                side = left if h.absorbed == h.left else right
                moved, stored = side.difference(anchor), h.absorbed_terms
                compact = type(stored) is int
                # a bare id cannot stand for two moved terms; a frozenset in
                # its place is in the wrong form only if it holds the side
                if compact != (len(moved) <= 1) and (compact or stored == side):
                    raise EngineInvariantError(
                        f"k-set {n} stores its absorbed side in the wrong form"
                    )
                if h.absorbed not in (h.left, h.right) or stored != (
                    next(iter(moved), -1) if compact else side
                ):
                    raise EngineInvariantError(
                        f"k-set {n} stores the wrong absorbed side"
                    )
            else:
                source = replay[h.source]
                if h.old not in source or h.already != (h.new in source):
                    raise EngineInvariantError(f"k-set {n} misrecords its renamed term")
                terms = source - {h.old} | {h.new}
            view = self.terms_of(n)
            if not view:
                raise EngineInvariantError(f"k-set {n} is empty")
            if view != terms:
                raise EngineInvariantError(f"k-set {n} disagrees with its history")
            replay.append(terms)
        expected: dict[int, set[int]] = {}
        for handle, terms in live.items():
            for x in terms:
                expected.setdefault(x, set()).add(handle)
        for x in self.term2parents.keys() | expected.keys():
            if set(self.parents_of(x)) != expected.get(x, set()):
                raise EngineInvariantError(f"parent map out of sync for term {x}")
            ps = self.term2parents[x]
            if type(ps) is not int and (type(ps) is not set or len(ps) < 2):
                raise EngineInvariantError(f"term {x} has a non-canonical parent entry")
        active = sorted(owner.values())
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                shared = live[handles[a]] & live[handles[b]]
                n_classes = len({self.class_of[t] for t in shared})
                if n_classes >= self.k:
                    raise EngineInvariantError(
                        f"active k-sets {a} and {b} share {n_classes} classes"
                    )
        self.check_counter_bounds()
