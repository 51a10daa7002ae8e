import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kequiv import CongruenceState, InconsistentEqualityError, UnionFind, check
from helpers import (
    build_congruence,
    random_congruence_instance,
    run_congruence_differential,
)


def state_with(names, groups=(), relations=None):
    state = CongruenceState(relations or {"coll": 2})
    ids = {n: state.intern_term(n) for n in names}
    for group in groups:
        state.mark_possibly_equal([ids[n] for n in group])
    return state, ids


class TestUnionFind:
    def test_basics(self):
        uf = UnionFind()
        for i in range(5):
            uf.add(i)
        assert uf.union(0, 1) is not None
        assert uf.union(0, 1) is None
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) != uf.find(0)

    def test_smaller_side_moves(self):
        uf = UnionFind()
        for i in range(4):
            uf.add(i)
        uf.union(0, 1)
        uf.union(0, 2)
        root, moved = uf.union(0, 3)
        assert moved == [3]
        assert set(uf.class_members(3)) == {0, 1, 2, 3}


class TestAssertEq:
    def test_substituted_query_entailed(self):
        state, ids = state_with("abcd", groups=["cd"])
        state.assert_atom("coll", [ids["a"], ids["b"], ids["c"]])
        state.assert_eq(ids["c"], ids["d"])
        proof = state.query_atom("coll", [ids["a"], ids["b"], ids["d"]])
        assert proof is not None
        session = state.sessions["coll"]
        conclusion = check(
            proof, 2, session.hypotheses, session.class_of, state.equalities
        )
        assert conclusion == {
            state.canonical(t) for t in (ids["a"], ids["b"], ids["d"])
        }

    def test_self_equality_noop(self):
        state, ids = state_with("abc")
        state.assert_atom("coll", [ids[c] for c in "abc"])
        before = len(state.sessions["coll"].ksets)
        state.assert_eq(ids["a"], ids["a"])
        assert len(state.sessions["coll"].ksets) == before
        assert state.query_term_eq(ids["a"], ids["a"])

    def test_two_lines_glued_by_two_equalities(self):
        state, ids = state_with("abcdef", groups=["ad", "be"])
        state.assert_atom("coll", [ids[c] for c in "abc"])
        state.assert_atom("coll", [ids[c] for c in "def"])
        state.assert_eq(ids["a"], ids["d"])
        state.assert_eq(ids["b"], ids["e"])
        assert state.query_atom("coll", [ids[c] for c in "abf"]) is not None
        assert state.query_atom("coll", [ids[c] for c in "cef"]) is not None
        state.sessions["coll"].validate()

    def test_known_distinct_terms_cannot_be_equated(self):
        state, ids = state_with("abc")
        with pytest.raises(InconsistentEqualityError):
            state.assert_eq(ids["a"], ids["b"])

    def test_idempotent_and_order_insensitive(self):
        base_statements = [
            ("atom", "abc"),
            ("eq", "cd"),
            ("atom", "dbe"),
            ("eq", "cd"),
        ]

        def build(statements):
            state, ids = state_with("abcde", groups=["cd"])
            for kind, payload in statements:
                if kind == "eq":
                    state.assert_eq(*[ids[c] for c in payload])
                else:
                    state.assert_atom("coll", [ids[c] for c in payload])
            return state, ids

        verdicts = []
        for order in (base_statements, base_statements[::-1]):
            state, ids = build(order)
            verdicts.append(
                [
                    state.query_atom("coll", [ids[c] for c in combo]) is not None
                    for combo in itertools.combinations("abcde", 3)
                ]
            )
        assert verdicts[0] == verdicts[1]

    def test_equality_before_atom_also_canonicalizes(self):
        state, ids = state_with("abcd", groups=["cd"])
        state.assert_eq(ids["c"], ids["d"])
        state.assert_atom("coll", [ids["a"], ids["b"], ids["c"]])
        assert state.query_atom("coll", [ids["a"], ids["b"], ids["d"]]) is not None


class TestTermQueries:
    def test_reflexive(self):
        state, ids = state_with("ab")
        assert state.query_term_eq(ids["a"], ids["a"])

    def test_after_assert(self):
        state, ids = state_with("ab", groups=["ab"])
        state.assert_eq(ids["a"], ids["b"])
        assert state.query_term_eq(ids["a"], ids["b"])

    def test_unrelated(self):
        state, ids = state_with("ab", groups=["ab"])
        assert not state.query_term_eq(ids["a"], ids["b"])


class TestApplications:
    def table_state(self):
        state, ids = state_with("abcdefg")
        for hyp in ["abc", "cde", "efg", "adg", "bcd"]:
            state.assert_atom("coll", [ids[c] for c in hyp])
        return state, ids

    def test_table_collapses_to_one_class(self):
        state, ids = self.table_state()
        # "ab" and "cd" included: every anchor pair names the one line
        anchors = list(itertools.combinations(ids.values(), 2))
        assert all(
            state.query_kfun_eq("coll", x1, x2) for x1 in anchors for x2 in anchors
        )

    def test_disjoint_facts_stay_apart(self):
        state, ids = state_with("abcdef")
        state.assert_atom("coll", [ids[c] for c in "abc"])
        state.assert_atom("coll", [ids[c] for c in "def"])
        lines = [
            list(itertools.combinations([ids[c] for c in line], 2))
            for line in ("abc", "def")
        ]
        for i, j in itertools.product(range(2), repeat=2):
            for x1 in lines[i]:
                for x2 in lines[j]:
                    assert state.query_kfun_eq("coll", x1, x2) == (i == j)

    def test_kfun_eq_agreement(self):
        state, ids = self.table_state()
        session = state.sessions["coll"]
        for x1, x2 in [("ab", "fg"), ("ab", "ef"), ("ab", "ab"), ("ce", "dg")]:
            got = state.query_kfun_eq(
                "coll", [ids[c] for c in x1], [ids[c] for c in x2]
            )
            want = session.kfun_eq(
                [ids[c] for c in x1], [ids[c] for c in x2]
            ) is not None
            assert got == want and got

    def test_kfun_eq_disjoint_lines_false(self):
        state, ids = state_with("abcdef")
        state.assert_atom("coll", [ids[c] for c in "abc"])
        state.assert_atom("coll", [ids[c] for c in "def"])
        assert not state.query_kfun_eq(
            "coll", [ids["a"], ids["b"]], [ids["d"], ids["e"]]
        )

    def test_kfun_eq_size_check(self):
        state, ids = self.table_state()
        with pytest.raises(ValueError):
            state.query_kfun_eq("coll", [ids["a"]], [ids["b"], ids["c"]])


class TestMultiRelation:
    def test_equalities_reach_every_session(self):
        state = CongruenceState({"coll": 2, "cycl": 3})
        ids = {n: state.intern_term(n) for n in "abcdex"}
        state.mark_possibly_equal([ids["e"], ids["x"]])
        state.assert_atom("coll", [ids[c] for c in "abe"])
        state.assert_atom("cycl", [ids[c] for c in "abce"])
        state.assert_eq(ids["e"], ids["x"])
        assert state.query_atom("coll", [ids[c] for c in "abx"]) is not None
        assert state.query_atom("cycl", [ids[c] for c in "abcx"]) is not None

    def test_sessions_share_one_term_table(self):
        state = CongruenceState({"coll": 2, "cycl": 3})
        a, b = state.intern_term("a"), state.intern_term("b")
        c = state.sessions["coll"].intern_term("c")
        assert state.sessions["cycl"].term_id("c") == state.term_id("c") == c
        state.assert_atom("coll", [a, b, c])
        assert state.query_atom("coll", [a, b, c]) is not None

    def test_unknown_relation(self):
        state = CongruenceState({"coll": 2})
        with pytest.raises(ValueError):
            state.assert_atom("nope", [0, 1, 2])


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_congruence_differential(seed):
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3])
    n_terms, class_of, statements = random_congruence_instance(rng, k)
    assert run_congruence_differential(k, n_terms, class_of, statements) == []


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_statement_order_insensitive(seed):
    rng = random.Random(seed)
    k = rng.choice([1, 2])
    n_terms, class_of, statements = random_congruence_instance(rng, k)
    base = build_congruence(k, n_terms, class_of, statements)
    shuffled = statements[:]
    rng.shuffle(shuffled)
    other = build_congruence(k, n_terms, class_of, shuffled)
    for combo in itertools.combinations(range(n_terms), k + 1):
        assert (base.query_atom("r", combo) is None) == (
            other.query_atom("r", combo) is None
        )
