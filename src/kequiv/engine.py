"""Incremental closure engine for k-equivalence relations.

A session tracks one (k+1)-ary relation that behaves like equality
generalized to k anchor points (k=1 plain equivalence, k=2 collinearity,
k=3 cocyclicity).  Facts are stored as *k-sets*: term sets whose
(k+1)-subsets all stand in the relation.  Asserting a hypothesis adds a
k-set and fuses it with any active k-set it overlaps on at least k
known-distinct terms, so the active k-sets always overlap pairwise on
fewer than k distinctness classes.  The full arena is kept (inactive
records included) so compact proofs can be extracted from the merge
history afterwards.  Sessions share one `Equalities` object, as they share
the `TermTable`; a k-set renamed to representatives records only (old,
representative) pairs, which `explain` expands along the proof forest.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Mapping, Sequence, Union

from .proofs import Assume, ProofTerm, Project, SubRefl, Subst, Trans

__all__ = [
    "Asserted",
    "Merged",
    "Rewritten",
    "HistoryNode",
    "KSet",
    "Stats",
    "EngineInvariantError",
    "UnionFind",
    "TermTable",
    "Equalities",
    "Session",
]


@dataclass(frozen=True)
class Asserted:
    """The k-set came straight from hypothesis `hyp_index`."""

    hyp_index: int


@dataclass(frozen=True)
class Merged:
    """The k-set is the union of two earlier k-sets (both ids smaller)."""

    left: int
    right: int


@dataclass(frozen=True)
class Rewritten:
    """The k-set is an earlier one with terms renamed by logged equalities.

    `renames` holds (old term, representative) pairs, applied in order.
    """

    source: int
    renames: tuple[tuple[int, int], ...]


HistoryNode = Union[Asserted, Merged, Rewritten]


@dataclass
class KSet:
    id: int
    terms: frozenset[int]
    history: HistoryNode
    active: bool = True


@dataclass
class Stats:
    """A session's instrumentation counters; `Session.stats()` returns a copy."""

    hypotheses: int = 0
    active: int = 0
    merges: int = 0
    find_merges_calls: int = 0
    rewrites: int = 0
    max_kset_size: int = 0
    max_parents: int = 0


class EngineInvariantError(AssertionError):
    """An engine bug; raised rather than asserted, so `python -O` keeps it."""


class UnionFind:
    """Union-find with size-based merging and per-root member lists."""

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.members: dict[int, list[int]] = {}

    def add(self, x: int) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.members[x] = [x]

    def find(self, x: int) -> int:
        p = self.parent
        if x not in p:  # never added: a singleton
            return x
        while p[x] != x:
            p[x] = p[p[x]]  # path halving
            x = p[x]
        return x

    def union(self, a: int, b: int) -> tuple[int, list[int]] | None:
        """Merge the classes of a and b; smaller class moves.

        Returns (surviving root, members that changed representative), or
        None when already together.
        """
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if len(self.members[ra]) < len(self.members[rb]):
            ra, rb = rb, ra
        moved = self.members.pop(rb)
        self.parent[rb] = ra
        self.members[ra].extend(moved)
        return ra, moved


class TermTable:
    """Term names to dense ids and back, plus the distinctness partition.

    `class_of` maps each term id to a class label: terms in one class are
    possibly equal, terms in different classes are known distinct.  One
    table may be shared by several sessions (see `CongruenceState`); the
    partition is fixed once any of them has logged a fact.
    """

    def __init__(self, partition: Mapping[int, int] | None = None):
        self.term_ids: dict[str, int] = {}
        self.term_names: list[str] = []
        self.class_of: dict[int, int] = dict(partition or {})
        self._next_class = max(self.class_of.values(), default=-1) + 1
        # holds only terms that ever shared a class
        self._classes = UnionFind()
        self.fixed = False
        first: dict[int, int] = {}
        for t, c in (partition or {}).items():
            self.mark_possibly_equal((first.setdefault(c, t), t))

    def intern_term(self, name: str) -> int:
        """Map a name to a dense term id, idempotently."""
        tid = self.term_ids.get(name)
        if tid is None:
            tid = len(self.term_names)
            self.term_ids[name] = tid
            self.term_names.append(name)
            if tid not in self.class_of:
                self.class_of[tid] = self._next_class
                self._next_class += 1
        return tid

    def mark_possibly_equal(self, terms: Iterable[int]) -> None:
        """Collapse the distinctness classes of `terms` into one.

        Terms in one class are treated as possibly equal, so they never
        count as distinct anchors.  Only the members of the smaller class
        of each union are relabelled.
        """
        if self.fixed:
            raise ValueError("the distinctness partition is fixed once facts exist")
        terms = list(terms)
        for t in terms:
            if t not in self.class_of:
                raise ValueError(f"unknown term id {t}")
        for t in terms[1:]:
            union = self._classes.union(terms[0], t)
            if union is not None:
                root, moved = union
                for m in moved:
                    self.class_of[m] = self.class_of[root]


class Equalities(Sequence[tuple[int, int]]):
    """The equality log of (a, b) pairs, with its union-find and proof forest.

    The equalities that merged two classes form a proof forest (Nieuwenhuis
    & Oliveras, RTA 2005), each tree rooted at its union-find
    representative.  Unions only add edges and re-rooting only flips them,
    so the path between two joined terms never changes.  The log is
    read-only from outside: `union` is the one way in, so the log, the
    union-find and the forest stay in step.
    """

    def __init__(self) -> None:
        self._log: list[tuple[int, int]] = []
        self._uf = UnionFind()
        self.find = self._uf.find
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

    def __init__(self, k: int, partition: Mapping[int, int] | None = None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = k
        self.hypotheses: list[tuple[int, ...]] = []
        self.ksets: list[KSet] = []
        self.term2parents: defaultdict[int, set[int]] = defaultdict(set)
        # both shared with a congruence layer when one manages this session
        self.terms = TermTable(partition)
        self.equalities = Equalities()
        self.counters = Stats()

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

    def term_id(self, name: str) -> int:
        return self.terms.term_ids[name]

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
        for x in xs:
            if not 0 <= x < len(self.term_names):
                raise ValueError(f"unknown term id {x}")
        self.terms.fixed = True
        self.hypotheses.append(xs)
        self.counters.hypotheses += 1
        i = len(self.hypotheses) - 1
        n = self.new_kset(xs, Asserted(i))
        find = self.equalities.find
        renames = tuple((t, find(t)) for t in sorted(set(xs)) if find(t) != t)
        if renames:
            n = self.rewrite_kset(n, renames)
        self.find_merges(n)
        self.check_counter_bounds()
        return i

    def rename_term(self, old: int) -> None:
        """`old` stopped being a representative: rename it in its k-sets.

        Active k-sets hold only representatives, so `old` is their one
        renamed term.  They are rewritten in ascending id order, then each
        result still active is re-merged.
        """
        renames = ((old, self.equalities.find(old)),)
        rewritten = [
            self.rewrite_kset(kid, renames)
            for kid in sorted(self.term2parents.get(old, ()))
        ]
        for n in rewritten:
            if self.ksets[n].active:
                self.find_merges(n)
        self.check_counter_bounds()

    def new_kset(self, terms: Iterable[int], history: HistoryNode) -> int:
        """Append an active k-set record and register it with its terms."""
        terms = frozenset(terms)
        if not terms:
            raise ValueError("a k-set needs at least one term")
        n = len(self.ksets)
        self.ksets.append(KSet(n, terms, history))
        c = self.counters
        for x in terms:
            ps = self.term2parents[x]
            ps.add(n)
            if len(ps) > c.max_parents:
                c.max_parents = len(ps)
        c.active += 1
        if len(terms) > c.max_kset_size:
            c.max_kset_size = len(terms)
        return n

    def _deactivate(self, n: int) -> None:
        rec = self.ksets[n]
        rec.active = False
        for x in rec.terms:
            self.term2parents[x].remove(n)
        self.counters.active -= 1

    def find_merges(self, n: int) -> None:
        """Fuse k-set `n` with every active k-set it overlaps on >= k classes.

        Repeats on the fused result until no overlap remains.  Overlaps are
        counted per distinctness class: parents are set-unioned within each
        class of n's terms, then tallied across classes, so an id's count
        is the number of classes represented in its literal intersection
        with n.
        """
        if not self.ksets[n].active:
            raise ValueError(f"k-set {n} is not active")
        class_of = self.terms.class_of
        parents = self.term2parents
        while True:
            self.counters.find_merges_calls += 1
            groups: dict[int, set[int]] = {}
            for x in self.ksets[n].terms:
                c = class_of[x]
                g = groups.get(c)
                # a class's second term gets a new set: never grow the index's own
                groups[c] = parents[x] if g is None else g | parents[x]
            counts = Counter(chain.from_iterable(groups.values()))
            matches = sorted(i for i, c in counts.items() if c >= self.k and i != n)
            if not matches:
                return
            for m in matches:
                n = self.merge(m, n)

    def merge(self, i1: int, i2: int) -> int:
        """Replace two active k-sets by their union; returns the new id."""
        if i1 == i2:
            raise ValueError("cannot merge a k-set with itself")
        a, b = self.ksets[i1], self.ksets[i2]
        if not (a.active and b.active):
            raise ValueError("merge needs two active k-sets")
        shared = a.terms & b.terms
        if len({self.class_of[t] for t in shared}) < self.k:
            raise ValueError(
                f"merge needs {self.k} distinctness classes in the overlap"
            )
        self._deactivate(i1)
        self._deactivate(i2)
        n = self.new_kset(a.terms | b.terms, Merged(i1, i2))
        self.counters.merges += 1
        return n

    def rewrite_kset(self, kid: int, renames: Sequence[tuple[int, int]]) -> int:
        """Replace an active k-set by a copy with terms renamed per `renames`.

        Each (old, new) pair replaces `old` by `new`; the two terms must be
        joined in the equality forest.  The caller is responsible for
        running find_merges on the result.
        """
        rec = self.ksets[kid]
        if not rec.active:
            raise ValueError(f"k-set {kid} is not active")
        terms = set(rec.terms)
        for old, new in renames:
            if old in terms:
                terms.discard(old)
                terms.add(new)
        self._deactivate(kid)
        n = self.new_kset(frozenset(terms), Rewritten(kid, tuple(renames)))
        self.counters.rewrites += 1
        return n

    # ------------------------------------------------------------------
    # queries

    def resolve_query(self, xs: Iterable[int]) -> ProofTerm | None:
        """Decide whether the terms `xs` are jointly related.

        Returns a checkable proof of the terms' representatives when they
        are, None when they are not.  Any number of terms is accepted;
        duplicates collapse.  A term id that was never interned raises
        ValueError, as in `assert_hypothesis`.  The session is left
        untouched.
        """
        s = frozenset(map(self.equalities.find, xs))
        if not s:
            raise ValueError("empty query")
        lo, hi = min(s), max(s)
        if lo < 0 or hi >= len(self.term_names):
            raise ValueError(f"unknown term id {lo if lo < 0 else hi}")
        if len(s) <= self.k:
            return SubRefl(s)
        parents: set[int] | None = None
        for x in s:
            ps = self.term2parents.get(x)
            if not ps:
                return None
            parents = set(ps) if parents is None else parents & ps
            if not parents:
                return None
        proof, conclusion = self._explain(min(parents), s)
        if conclusion != s:
            proof = Project(proof, s)
        return proof

    def explain(self, n: int, xs: Iterable[int]) -> ProofTerm:
        """Extract a compact proof that k-set `n` covers the terms `xs`.

        The conclusion is a superset of `xs` when the walk bottoms out in a
        single hypothesis, and exactly `xs` otherwise.
        """
        if not 0 <= n < len(self.ksets):
            raise ValueError(f"unknown k-set id {n}")
        s = frozenset(xs)
        if not s:
            raise ValueError("empty term set")
        if not s <= self.ksets[n].terms:
            raise ValueError(f"terms are not covered by k-set {n}")
        return self._explain(n, s)[0]

    def _explain(self, n: int, xs: frozenset[int]) -> tuple[ProofTerm, frozenset[int]]:
        # Explicit work stack: merge chains (and hence proofs) can be far
        # deeper than the interpreter's recursion limit.
        tasks: list[tuple] = [("explain", n, xs)]
        results: list[tuple[ProofTerm, frozenset[int]]] = []
        while tasks:
            task = tasks.pop()
            kind = task[0]
            if kind == "explain":
                _, n, xs = task
                while True:
                    h = self.ksets[n].history
                    if isinstance(h, Asserted):
                        results.append(
                            (
                                Assume(h.hyp_index),
                                frozenset(self.hypotheses[h.hyp_index]),
                            )
                        )
                        break
                    if isinstance(h, Rewritten):
                        steps = []
                        for r in h.renames:
                            steps += self.equalities.path(*r)
                        # pull xs back through the renaming, last step first
                        wanted = set(xs)
                        for old, new, _ in reversed(steps):
                            if new in wanted:
                                wanted.add(old)
                            else:
                                wanted.discard(old)
                        wanted = self.ksets[h.source].terms & wanted
                        tasks.append(("rewrap", steps, xs))
                        tasks.append(("explain", h.source, wanted))
                        break
                    s1 = self.ksets[h.left].terms
                    s2 = self.ksets[h.right].terms
                    if xs <= s1:
                        n = h.left
                        continue
                    if xs <= s2:
                        n = h.right
                        continue
                    anchor = s1 & s2
                    tasks.append(("fuse", xs))
                    tasks.append(("explain", h.right, anchor | (s2 & xs)))
                    tasks.append(("explain", h.left, anchor | (s1 & xs)))
                    break
            elif kind == "fuse":
                _, xs = task
                p2, _ = results.pop()
                p1, _ = results.pop()
                results.append((Project(Trans(p1, p2), xs), xs))
            else:  # rewrap
                _, steps, xs = task
                proof, conclusion = results.pop()
                current = set(conclusion)
                for old, new, e in steps:
                    if old in current:
                        proof = Subst(proof, old, new, e)
                        current.discard(old)
                        current.add(new)
                if frozenset(current) != xs:
                    proof = Project(proof, xs)
                results.append((proof, xs))
        (out,) = results
        return out

    def kfun_eq(self, x1: Iterable[int], x2: Iterable[int]) -> ProofTerm | None:
        """Decide whether two k-element anchor sets name the same object.

        The line through {a,b} equals the line through {c,d} exactly when
        all four points are jointly related, so this reduces to a query on
        the union.
        """
        a, b = frozenset(x1), frozenset(x2)
        if len(a) != self.k or len(b) != self.k:
            raise ValueError(f"anchor sets must have exactly {self.k} terms")
        return self.resolve_query(a | b)

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> Stats:
        return replace(self.counters)

    def check_counter_bounds(self) -> None:
        """Cheap structural bounds; a violation means an engine bug."""
        c = self.counters
        n = c.hypotheses
        if c.active > n:
            raise EngineInvariantError("more active k-sets than hypotheses")
        if c.merges > max(0, n - 1):
            raise EngineInvariantError("merge count exceeded n-1")
        if c.find_merges_calls > 2 * (n + c.rewrites):
            raise EngineInvariantError("find_merges call bound exceeded")
        if c.max_kset_size > (self.k + n if n else 0):
            raise EngineInvariantError("k-set size bound exceeded")

    def validate(self) -> None:
        """Deep structural check, intended for tests (quadratic in actives).

        Verifies record well-formedness, parent-map conservation, the
        pairwise overlap invariant of active k-sets, and counter bounds.
        Raises EngineInvariantError on the first violation.
        """
        for rec in self.ksets:
            if not rec.terms:
                raise EngineInvariantError(f"k-set {rec.id} is empty")
            h = rec.history
            if isinstance(h, Merged):
                sources = (h.left, h.right)
            elif isinstance(h, Rewritten):
                sources = (h.source,)
            else:
                sources = ()
            if any(src >= rec.id for src in sources):
                raise EngineInvariantError(f"k-set {rec.id} cites a later k-set")
        for x, ps in self.term2parents.items():
            expected = {
                rec.id for rec in self.ksets if rec.active and x in rec.terms
            }
            if ps != expected:
                raise EngineInvariantError(f"parent map out of sync for term {x}")
        active = [rec for rec in self.ksets if rec.active]
        if len(active) != self.counters.active:
            raise EngineInvariantError("active counter out of sync")
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                shared = a.terms & b.terms
                n_classes = len({self.class_of[t] for t in shared})
                if n_classes >= self.k:
                    raise EngineInvariantError(
                        f"active k-sets {a.id} and {b.id} share {n_classes} classes"
                    )
        self.check_counter_bounds()
