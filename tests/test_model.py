"""Stateful model test: random interleavings of asserts, equalities,
queries and explains on one `CongruenceState`, checked step by step
against the saturation oracle.

The reference keeps each relation's raw hypotheses and an independent
union-find over the asserted equalities; after every rule the engine's
active k-sets must equal `closure_sets` of the hypotheses mapped through
that union-find, every session must validate, and every proof must check.
"""

import copy
import random
from itertools import combinations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import pytest

from kequiv import (
    CongruenceState,
    InconsistentEqualityError,
    closure_sets,
    covered,
)
from helpers import DisjointSet, check_text, class_groups

N_TERMS = 7


def shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# sets of k+1 distinct terms, for atoms (one that collapses to k terms or
# fewer says nothing) and for pairs, shuffled because draws favour the
# front of a list
ATOMS = {k: shuffled(combinations(range(N_TERMS), k + 1), k) for k in (1, 2, 3)}


def snapshot(state):
    """Everything a read-only call must leave as it was."""
    return (
        len(state.equalities),
        copy.deepcopy(vars(state.equalities._uf)),
        dict(state.equalities.forest),
        dict(state.terms.class_of),
        {
            name: (
                [(r.id, r.terms, r.history, r.active) for r in s.ksets],
                {t: set(s.parents_of(t)) for t in s.term2parents},
                list(s.hypotheses),
                s.stats(),
            )
            for name, s in state.sessions.items()
        },
    )


class CongruenceMachine(RuleBasedStateMachine):
    @initialize(
        ks=st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=3),
        joins=st.lists(st.sampled_from(ATOMS[1]), min_size=1, max_size=4),
    )
    def setup(self, ks, joins):
        self.relations = {f"r{i}": k for i, k in enumerate(ks)}
        self.state = CongruenceState(self.relations)
        for i in range(N_TERMS):
            self.state.intern_term(f"t{i}")
        classes = DisjointSet(N_TERMS)
        for a, b in joins:
            classes.union(a, b)
        self.class_of = {t: classes.find(t) for t in range(N_TERMS)}
        for group in class_groups(self.class_of):
            self.state.mark_possibly_equal(group)
        self.hyps = {name: [] for name in self.relations}
        self.eqs = DisjointSet(N_TERMS)

    def family(self, name):
        find = self.eqs.find
        hyps = [tuple(map(find, h)) for h in self.hyps[name]]
        return closure_sets(self.relations[name], hyps, self.class_of)

    def check_proof(self, name, proof):
        return check_text(proof, self.state.sessions[name])

    @rule(data=st.data())
    def assert_atoms(self, data):
        name = data.draw(st.sampled_from(sorted(self.relations)))
        k = self.relations[name]
        atoms = st.lists(st.sampled_from(ATOMS[k]), min_size=1, max_size=3)
        for xs in data.draw(atoms):
            self.state.assert_atom(name, xs)
            self.hyps[name].append(xs)

    def fresh_pairs(self):
        """Pairs the partition allows to be equal that are not yet equal."""
        find = self.eqs.find
        return [
            (a, b)
            for a, b in ATOMS[1]
            if self.class_of[a] == self.class_of[b] and find(a) != find(b)
        ]

    def equate(self, a, b):
        if self.class_of[a] != self.class_of[b]:
            before = snapshot(self.state)
            with pytest.raises(InconsistentEqualityError):
                self.state.assert_eq(a, b)
            assert snapshot(self.state) == before
            return
        self.state.assert_eq(a, b)
        self.eqs.union(a, b)

    @rule(data=st.data())
    def assert_eq(self, data):
        # half the time a pair that may be equated, else any pair
        fresh = self.fresh_pairs()
        pairs = fresh if fresh and data.draw(st.booleans()) else ATOMS[1]
        self.equate(*data.draw(st.sampled_from(pairs)))

    @precondition(lambda self: self.fresh_pairs())
    @rule(data=st.data())
    def equate_across_atoms(self, data):
        """Assert an atom through each of two possibly-equal terms, then
        equate them, so the renamed k-sets have to re-merge."""
        a, b = data.draw(st.sampled_from(self.fresh_pairs()))
        name = data.draw(st.sampled_from(sorted(self.relations)))
        k = self.relations[name]
        for t in (a, b):
            xs = data.draw(st.sampled_from([xs for xs in ATOMS[k] if t in xs]))
            self.state.assert_atom(name, xs)
            self.hyps[name].append(xs)
        self.equate(a, b)

    @rule(data=st.data())
    def query_atom(self, data):
        name = data.draw(st.sampled_from(sorted(self.relations)))
        k = self.relations[name]
        term = st.integers(0, N_TERMS - 1)
        xs = data.draw(st.lists(term, min_size=1, max_size=k + 2))
        before = snapshot(self.state)
        proof = self.state.query_atom(name, xs)
        assert snapshot(self.state) == before
        expected = covered(k, {self.eqs.find(t) for t in xs}, self.family(name))
        assert (proof is not None) == expected, (name, xs)
        if proof is not None:
            find = self.state.equalities.find
            assert self.check_proof(name, proof) == {find(t) for t in xs}

    def has_active(self):
        return any(r.active for s in self.state.sessions.values() for r in s.ksets)

    @precondition(has_active)
    @rule(data=st.data())
    def explain(self, data):
        live = [
            (name, r)
            for name, s in self.state.sessions.items()
            for r in s.ksets
            if r.active
        ]
        name, rec = data.draw(st.sampled_from(live))
        terms = sorted(rec.terms)
        xs = data.draw(st.lists(st.sampled_from(terms), min_size=1, unique=True))
        before = snapshot(self.state)
        proof = self.state.sessions[name].explain(rec.id, xs)
        assert snapshot(self.state) == before
        assert set(xs) <= self.check_proof(name, proof)

    @invariant()
    def sessions_validate(self):
        for s in self.state.sessions.values():
            s.validate()
            assert [r.history for r in s.ksets] == s.history
            assert len(s.handles) == len(s.history)

    @invariant()
    def active_sets_match_the_oracle(self):
        for name, s in self.state.sessions.items():
            k = self.relations[name]
            active = {
                frozenset(map(self.eqs.find, r.terms))
                for r in s.ksets
                if r.active and len(r.terms) > k
            }
            assert active == self.family(name), name


CongruenceMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=15, deadline=None
)
TestCongruenceModel = CongruenceMachine.TestCase
