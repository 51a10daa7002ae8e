"""Equality layer over closure sessions.

Terms may be asserted equal; every affected k-set is then rewritten to
representative terms and re-submitted.  All sessions share one term table
(names, ids and the distinctness partition) and one `Equalities` (log,
union-find and proof forest), so each session canonicalizes its own terms
and explains renamings as `subst` chains over the raw log.  Equalities
are only accepted between terms the distinctness partition allows to be
equal; equating known-distinct terms is an inconsistency.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .engine import Equalities, Session, TermTable

__all__ = ["InconsistentEqualityError", "CongruenceState"]


class InconsistentEqualityError(Exception):
    """An equality was asserted between terms known to be distinct."""


class CongruenceState:
    """Shared term universe plus one closure session per relation.

    One writer, like the sessions it owns.  Every session reads the
    state's term table (`terms`, a new empty one when not given) and
    equalities, so ids agree across relations.
    """

    def __init__(self, relations: Mapping[str, int], terms: TermTable | None = None):
        self.terms = TermTable() if terms is None else terms
        self.equalities = Equalities()
        self.sessions: dict[str, Session] = {}
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
        return self._session(relation).assert_hypothesis(xs)

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
        if self.terms.class_of[a] != self.terms.class_of[b]:
            raise InconsistentEqualityError(
                f"terms {self.term_names[a]!r} and {self.term_names[b]!r} "
                "are known distinct"
            )
        self.terms.fixed = True
        old = self.equalities.union(a, b)
        if old is not None:
            for session in self.sessions.values():
                session.rename_term(old)

    # ------------------------------------------------------------------
    # queries

    def query_atom(self, relation: str, xs: Iterable[int]) -> list[str] | None:
        """Decide an atom modulo the asserted equalities.

        The query terms are canonicalized first; a returned proof concludes
        the canonicalized term set and comes as the pieces of its text,
        which `format_proof` joins (see `Session.resolve_query`).
        """
        return self._session(relation).resolve_query(xs)

    def _session(self, relation: str) -> Session:
        try:
            return self.sessions[relation]
        except KeyError:
            raise ValueError(f"unknown relation {relation!r}") from None
