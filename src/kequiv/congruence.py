"""Equality layer over closure sessions.

Terms may be asserted equal; every affected k-set is then rewritten to
representative terms and re-submitted.  All sessions share one term table
(names, ids and the distinctness partition).  Equalities are only accepted
between terms the distinctness partition allows to be equal; equating
known-distinct terms is an inconsistency.

Proofs survive the rewriting: each renaming step is justified by a chain
of `subst` nodes over the raw equality log, found by walking the forest of
asserted equalities.
"""

from __future__ import annotations

from collections import deque
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
        self._edges: dict[int, list[tuple[int, int]]] = {}
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
        return self._session(relation).assert_renamed(xs, self._canonical_steps)

    def assert_eq(self, a: int, b: int) -> None:
        """Assert that two terms are equal.

        The terms must share a distinctness class (cross-class terms are
        known distinct, so equating them raises
        InconsistentEqualityError).  Every active k-set containing a member
        of the smaller equality class is rewritten to the new
        representatives and re-merged.
        """
        if self.class_of[a] != self.class_of[b]:
            raise InconsistentEqualityError(
                f"terms {self.term_names[a]!r} and {self.term_names[b]!r} "
                "are known distinct"
            )
        self.terms.fixed = True
        e = len(self.equalities)
        self.equalities.append((a, b))
        union = self.uf.union(a, b)
        if union is None:
            return
        self._edges.setdefault(a, []).append((b, e))
        self._edges.setdefault(b, []).append((a, e))
        _, moved = union
        for session in self.sessions.values():
            session.rename_terms(moved, self._canonical_steps)

    def _canonical_steps(self, terms: Iterable[int]) -> Steps:
        steps: list[tuple[int, int, int]] = []
        for t in sorted(terms):
            r = self.uf.find(t)
            if r != t:
                steps.extend(self._path_steps(t, r))
        return tuple(steps)

    def _path_steps(self, frm: int, to: int) -> list[tuple[int, int, int]]:
        # BFS through the forest of asserted equalities; the path exists
        # because frm and to share a union-find class.
        prev: dict[int, tuple[int, int]] = {}
        seen = {frm}
        queue = deque([frm])
        while queue:
            u = queue.popleft()
            if u == to:
                break
            for v, e in self._edges.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    prev[v] = (u, e)
                    queue.append(v)
        if to not in seen:
            raise EngineInvariantError("no equality path between equated terms")
        path: list[tuple[int, int, int]] = []
        node = to
        while node != frm:
            parent, e = prev[node]
            path.append((parent, node, e))
            node = parent
        path.reverse()
        return path

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
