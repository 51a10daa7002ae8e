"""Equality layer over closure sessions.

Terms may be asserted equal; every affected k-set is then rewritten to
representative terms and re-submitted.  All sessions share one term table
(names, ids and the distinctness partition).  Equalities are only accepted
between terms the distinctness partition allows to be equal; equating
known-distinct terms is an inconsistency.

Proofs survive the rewriting: each renaming step is justified by a chain
of `subst` nodes over the raw equality log.  The equalities that merged two
classes form a proof forest (Nieuwenhuis & Oliveras, "Proof-producing
congruence closure", RTA 2005): each equated term keeps one edge to its
parent, and every tree is rooted at its union-find representative, so a
term's chain is the walk up to that root.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .engine import EngineInvariantError, Session, Steps, TermTable, UnionFind
from .proofs import ProofTerm

__all__ = ["UnionFind", "InconsistentEqualityError", "CongruenceState"]


class InconsistentEqualityError(Exception):
    """An equality was asserted between terms known to be distinct."""


class CongruenceState:
    """Shared term universe plus one closure session per relation.

    One writer, like the sessions it owns.  Every session reads the
    state's term table, so ids agree across relations.
    """

    def __init__(self, relations: Mapping[str, int]):
        self.terms = TermTable()
        self.sessions: dict[str, Session] = {}
        self.equalities: list[tuple[int, int]] = []
        self.uf = UnionFind()
        # proof forest: term -> (parent, equality index); roots are absent
        self._proof: dict[int, tuple[int, int]] = {}
        for name, k in relations.items():
            session = Session(k)
            session.terms = self.terms
            session.equalities = self.equalities
            self.sessions[name] = session

    # ------------------------------------------------------------------
    # terms

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
    # assertions

    def assert_atom(self, relation: str, xs: Iterable[int]) -> int:
        """Assert a relation atom; terms are canonicalized before merging."""
        xs = tuple(xs)
        return self._session(relation).assert_renamed(xs, self._canonical_steps(xs))

    def assert_eq(self, a: int, b: int) -> None:
        """Assert that two terms are equal.

        The terms must share a distinctness class (cross-class terms are
        known distinct, so equating them raises
        InconsistentEqualityError).  Every active k-set containing the
        representative that the union retires is rewritten to the new
        representative and re-merged.
        """
        for x in (a, b):
            if not 0 <= x < len(self.term_names):
                raise ValueError(f"unknown term id {x}")
        if self.class_of[a] != self.class_of[b]:
            raise InconsistentEqualityError(
                f"terms {self.term_names[a]!r} and {self.term_names[b]!r} "
                "are known distinct"
            )
        self.terms.fixed = True
        e = len(self.equalities)
        self.equalities.append((a, b))
        ra, rb = self.uf.find(a), self.uf.find(b)
        union = self.uf.union(a, b)
        if union is None:
            return
        root, _ = union
        # re-root the moved tree at its endpoint, so the merged tree stays
        # rooted at the surviving representative
        child, parent, old = (b, a, rb) if root == ra else (a, b, ra)
        edge = self._proof.get(child)
        self._proof[child] = (parent, e)
        while edge is not None:
            parent, i = edge
            edge = self._proof.get(parent)
            self._proof[parent] = (child, i)
            child = parent
        steps = self._canonical_steps((old,))
        for session in self.sessions.values():
            session.rename_term(old, steps)

    def _canonical_steps(self, terms: Iterable[int]) -> Steps:
        steps: list[tuple[int, int, int]] = []
        for t in sorted(set(terms)):
            r = self.uf.find(t)
            while t in self._proof:
                parent, e = self._proof[t]
                steps.append((t, parent, e))
                t = parent
            if t != r:
                raise EngineInvariantError("no equality path between equated terms")
        return tuple(steps)

    # ------------------------------------------------------------------
    # queries

    def canonical(self, t: int) -> int:
        return self.uf.find(t)

    def query_term_eq(self, a: int, b: int) -> bool:
        return self.uf.find(a) == self.uf.find(b)

    def query_atom(self, relation: str, xs: Iterable[int]) -> ProofTerm | None:
        """Decide an atom modulo the asserted equalities.

        The query terms are canonicalized first; a returned proof concludes
        the canonicalized term set.
        """
        session = self._session(relation)
        canon = frozenset(self.uf.find(t) for t in xs)
        return session.resolve_query(canon)

    def query_kfun_eq(
        self, relation: str, x1: Iterable[int], x2: Iterable[int]
    ) -> bool:
        """Whether two k-term anchor sets name the same object, modulo equality."""
        session = self._session(relation)
        a, b = frozenset(x1), frozenset(x2)
        if len(a) != session.k or len(b) != session.k:
            raise ValueError(f"anchor sets must have exactly {session.k} terms")
        return self.query_atom(relation, a | b) is not None

    def _session(self, relation: str) -> Session:
        try:
            return self.sessions[relation]
        except KeyError:
            raise ValueError(f"unknown relation {relation!r}") from None
