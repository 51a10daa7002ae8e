import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kequiv import (
    Asserted,
    CongruenceState,
    InconsistentEqualityError,
    Rewritten,
)
from kequiv.engine import UnionFind
from helpers import (
    build_congruence,
    check_text,
    equality_path,
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
        assert uf.union(0, 1) is not None
        assert uf.union(0, 1) is None
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) != uf.find(0)
        # `find` reads and never writes, for a member and a stranger alike
        before = copy.deepcopy(vars(uf))
        assert [uf.find(i) for i in (1, 0, 7)] == [0, 0, 7]
        assert vars(uf) == before

    def test_smaller_side_moves(self):
        uf = UnionFind()
        uf.union(0, 1)
        uf.union(0, 2)
        root, moved = uf.union(0, 3)
        assert moved == [3]
        assert {uf.find(i) for i in range(4)} == {root}
        # the tie rule solve's bytes depend on: equal sizes keep a's root,
        # a larger b-class keeps b's
        assert uf.union(4, 5) == (4, [5])
        assert uf.union(6, 0) == (0, [6])
        assert uf.union(4, 7) == (4, [7])
        assert uf.union(8, 4) == (4, [8])
        assert uf.union(4, 0) == (0, [4, 5, 7, 8])


def test_a_query_writes_nothing():
    # eq a b, eq c d, eq a c leave d two steps below its root in a
    # parent-pointer union-find, so a query naming d would shorten that path
    state, ids = state_with("abcdxy", groups=["abcd"])
    a, b, c, d, x, y = (ids[n] for n in "abcdxy")
    state.assert_atom("coll", [d, x, y])
    for pair in ((a, b), (c, d), (a, c)):
        state.assert_eq(*pair)
    eqs = state.equalities

    def maps():
        return vars(eqs._uf), eqs.forest, state.terms.class_of

    before = copy.deepcopy(maps())
    assert state.query_atom("coll", [d, x, y]) is not None
    assert maps() == before


class TestAssertEq:
    def test_substituted_query_entailed(self):
        state, ids = state_with("abcd", groups=["cd"])
        state.assert_atom("coll", [ids["a"], ids["b"], ids["c"]])
        state.assert_eq(ids["c"], ids["d"])
        proof = state.query_atom("coll", [ids["a"], ids["b"], ids["d"]])
        assert proof is not None
        conclusion = check_text(proof, state.sessions["coll"])
        assert conclusion == {
            state.equalities.find(t) for t in (ids["a"], ids["b"], ids["d"])
        }

    def test_unknown_term_id_rejected(self):
        state, ids = state_with("a")
        with pytest.raises(ValueError, match="unknown term id 7"):
            state.assert_eq(ids["a"], 7)
        with pytest.raises(ValueError, match="unknown term id -1"):
            state.assert_eq(-1, ids["a"])
        assert len(state.equalities) == 0
        assert not state.terms.fixed

    def test_self_equality_noop(self):
        state, ids = state_with("abc")
        state.assert_atom("coll", [ids[c] for c in "abc"])
        before = len(state.sessions["coll"].ksets)
        state.assert_eq(ids["a"], ids["a"])
        assert len(state.sessions["coll"].ksets) == before
        assert state.equalities.find(ids["a"]) == ids["a"]

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
        assert state.equalities.find(ids["a"]) == ids["a"]

    def test_after_assert(self):
        state, ids = state_with("ab", groups=["ab"])
        state.assert_eq(ids["a"], ids["b"])
        find = state.equalities.find
        assert find(ids["a"]) == find(ids["b"])

    def test_unrelated(self):
        state, ids = state_with("ab", groups=["ab"])
        find = state.equalities.find
        assert find(ids["a"]) != find(ids["b"])

    def test_query_with_unknown_term_id_raises(self):
        state, ids = state_with("abc")
        state.assert_atom("coll", [ids["a"], ids["b"], ids["c"]])
        # the id out of range is named, the negative one first
        with pytest.raises(ValueError, match="unknown term id -3"):
            state.query_atom("coll", [ids["a"], 99, -3])
        with pytest.raises(ValueError, match="unknown term id 99"):
            state.query_atom("coll", [ids["a"], 99])


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
        session = state.sessions["coll"]
        assert all(
            session.kfun_eq(x1, x2) is not None for x1 in anchors for x2 in anchors
        )

    def test_disjoint_facts_stay_apart(self):
        state, ids = state_with("abcdef")
        state.assert_atom("coll", [ids[c] for c in "abc"])
        state.assert_atom("coll", [ids[c] for c in "def"])
        lines = [
            list(itertools.combinations([ids[c] for c in line], 2))
            for line in ("abc", "def")
        ]
        session = state.sessions["coll"]
        for i, j in itertools.product(range(2), repeat=2):
            for x1 in lines[i]:
                for x2 in lines[j]:
                    assert (session.kfun_eq(x1, x2) is not None) == (i == j)

    def test_kfun_eq_agreement(self):
        state, ids = self.table_state()
        session = state.sessions["coll"]
        for x1, x2 in [("ab", "fg"), ("ab", "ef"), ("ab", "ab"), ("ce", "dg")]:
            # the same line exactly when the four points are one atom
            got = session.kfun_eq([ids[c] for c in x1], [ids[c] for c in x2])
            want = state.query_atom("coll", [ids[c] for c in x1 + x2])
            assert got == want and got is not None

    def test_kfun_eq_disjoint_lines_false(self):
        state, ids = state_with("abcdef")
        state.assert_atom("coll", [ids[c] for c in "abc"])
        state.assert_atom("coll", [ids[c] for c in "def"])
        session = state.sessions["coll"]
        assert session.kfun_eq([ids["a"], ids["b"]], [ids["d"], ids["e"]]) is None

    def test_kfun_eq_size_check(self):
        state, ids = self.table_state()
        with pytest.raises(ValueError):
            state.sessions["coll"].kfun_eq([ids["a"]], [ids["b"], ids["c"]])


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
        assert state.sessions["cycl"].terms.term_ids["c"] == state.term_id("c") == c
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


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_equality_steps_follow_the_unique_forest_path(seed):
    # many unions re-root earlier trees; the steps between two joined terms
    # must still be the one path through the merging equalities
    rng = random.Random(seed)
    n_terms = 40
    names = [f"t{i}" for i in range(n_terms)]
    state, _ = state_with(names, groups=[names])
    for _ in range(60):
        state.assert_eq(rng.randrange(n_terms), rng.randrange(n_terms))
    eqs = state.equalities
    for t in range(n_terms):
        expected = equality_path(n_terms, eqs, t, eqs.find(t))
        assert eqs.path(t, eqs.find(t)) == expected
    for _ in range(40):
        a, b = rng.randrange(n_terms), rng.randrange(n_terms)
        if eqs.find(a) == eqs.find(b):
            assert eqs.path(a, b) == equality_path(n_terms, eqs, a, b)
            assert eqs.path(b, a) == equality_path(n_terms, eqs, b, a)


def test_eq_chain_stores_one_rename_per_step():
    # the eq-chain shape: q_i joins q_0's tree one edge deeper each time, so
    # the i-th rename spans i subst steps, yet stores a single pair, in a
    # `Rewritten` record or in a renamed hypothesis's `Asserted` record
    n = 400
    state = CongruenceState({"coll": 2})
    q = [state.intern_term(f"q{i}") for i in range(n)]
    x = [state.intern_term(f"x{i}") for i in range(n)]
    z = state.intern_term("z")
    state.mark_possibly_equal(q)
    for i in range(n):
        state.assert_atom("coll", [q[i], z, x[i]])
        if i:
            state.assert_eq(q[i - 1], q[i])
    session = state.sessions["coll"]
    histories = [r.history for r in session.ksets]
    stored = sum(isinstance(h, Rewritten) for h in histories) + sum(
        len(h.renames) for h in histories if isinstance(h, Asserted)
    )
    assert 0 < stored <= 2 * n
    proof = state.query_atom("coll", [q[n - 1], x[n - 1], x[n - 2]])
    conclusion = check_text(proof, session)
    assert conclusion == {q[0], x[n - 1], x[n - 2]}
