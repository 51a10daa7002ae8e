import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import kequiv
from kequiv import (
    Asserted,
    EngineInvariantError,
    Merged,
    Session,
    SubRefl,
    check,
    format_proof,
    used_hypotheses,
)
from helpers import build_session, run_differential

TABLE_HYPS = ["abc", "cde", "efg", "adg", "bcd"]


def table_session():
    s = Session(2)
    ids = {c: s.intern_term(c) for c in "abcdefg"}
    for hyp in TABLE_HYPS:
        s.assert_hypothesis([ids[c] for c in hyp])
    return s, ids


def names(session, terms):
    return "".join(sorted(session.term_names[t] for t in terms))


class TestSessionBasics:
    def test_new_session_is_empty(self):
        s = Session(2)
        assert s.ksets == [] and s.hypotheses == []
        assert s.stats().merges == 0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            Session(0)

    def test_k_one_and_three_accepted(self):
        assert Session(1).k == 1
        assert Session(3).k == 3

    def test_intern_idempotent(self):
        s = Session(2)
        assert s.intern_term("a") == s.intern_term("a")

    def test_intern_dense_in_order(self):
        s = Session(2)
        got = [s.intern_term(c) for c in "abcdefg"]
        assert got == list(range(7))
        assert s.intern_term("a") == 0

    def test_fresh_terms_get_fresh_classes(self):
        s = Session(2)
        a, b = s.intern_term("a"), s.intern_term("b")
        assert s.class_of[a] != s.class_of[b]


class TestAssert:
    def test_no_merge_below_overlap(self):
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcde"}
        s.assert_hypothesis([ids[c] for c in "abc"])
        s.assert_hypothesis([ids[c] for c in "cde"])
        assert s.active_count == 2  # overlap {c} is below k

    def test_table_run_single_active(self):
        s, _ = table_session()
        assert s.active_ids() == [8]
        assert names(s, s.ksets[8].terms) == "abcdefg"

    def test_shared_point_does_not_collapse(self):
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcde"}
        s.assert_hypothesis([ids[c] for c in "abc"])
        s.assert_hypothesis([ids[c] for c in "ade"])
        assert s.active_count == 2
        assert s.resolve_query([ids[c] for c in "bcd"]) is None

    def test_wrong_arity_rejected(self):
        s = Session(2)
        ids = [s.intern_term(c) for c in "abcd"]
        with pytest.raises(ValueError):
            s.assert_hypothesis(ids)
        with pytest.raises(ValueError):
            s.assert_hypothesis(ids[:2])

    def test_duplicate_terms_collapse(self):
        s = Session(2)
        a, b = s.intern_term("a"), s.intern_term("b")
        s.assert_hypothesis([a, a, b])
        assert s.ksets[0].terms == {a, b}
        assert len(s.hypotheses) == 1

    def test_unknown_term_id_rejected(self):
        s = Session(2)
        s.intern_term("a")
        with pytest.raises(ValueError):
            s.assert_hypothesis([0, 1, 2])


class TestArena:
    def test_first_kset_id_zero(self):
        s = Session(2)
        ids = [s.intern_term(c) for c in "abc"]
        assert s.new_kset(ids, Asserted(0)) == 0

    def test_table_arena_ids(self):
        s, _ = table_session()
        assert len(s.ksets) == 9
        assert [names(s, r.terms) for r in s.ksets] == [
            "abc", "cde", "efg", "adg", "bcd",
            "abcd", "abcde", "abcdeg", "abcdefg",
        ]
        assert [r.history for r in s.ksets[5:]] == [
            Merged(0, 4), Merged(1, 5), Merged(3, 6), Merged(2, 7),
        ]

    def test_merge_bookkeeping(self):
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcd"}
        s.assert_hypothesis([ids[c] for c in "abc"])
        before = s.active_count
        s.assert_hypothesis([ids[c] for c in "abd"])
        # one new k-set entered, two were retired, one union created
        assert s.active_count == before
        assert names(s, s.ksets[-1].terms) == "abcd"

    def test_merge_contract_violations(self):
        s, _ = table_session()
        with pytest.raises(ValueError):
            s.merge(8, 8)
        with pytest.raises(ValueError):
            s.merge(0, 8)  # 0 is inactive


class TestFindMergesWithPartition:
    def test_same_class_overlap_does_not_count(self):
        # b and c possibly equal: facts through {b,c} share only one class
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcd"}
        s.mark_possibly_equal([ids["b"], ids["c"]])
        s.assert_hypothesis([ids[c] for c in "abc"])
        s.assert_hypothesis([ids[c] for c in "bcd"])
        assert s.active_count == 2
        assert s.resolve_query([ids[c] for c in "abd"]) is None

    def test_cross_class_pair_merges(self):
        s = Session(2)
        a1 = s.intern_term("a1")
        a2 = s.intern_term("a2")
        b = s.intern_term("b")
        c = s.intern_term("c")
        s.mark_possibly_equal([a1, a2])
        s.assert_hypothesis([a1, b, c])
        s.assert_hypothesis([a2, b, c])
        assert s.active_count == 1
        assert s.ksets[-1].terms == {a1, a2, b, c}
        proof = s.resolve_query([a1, a2, b])
        assert proof is not None
        assert check(proof, 2, s.hypotheses, s.class_of) == {a1, a2, b}

    def test_partition_fixed_after_first_fact(self):
        s = Session(2)
        ids = [s.intern_term(c) for c in "abc"]
        s.assert_hypothesis(ids)
        with pytest.raises(ValueError):
            s.mark_possibly_equal(ids[:2])


class TestQueries:
    def test_subreflexive_query(self):
        s = Session(2)
        a, b = s.intern_term("a"), s.intern_term("b")
        assert s.resolve_query([a, a, b]) == SubRefl(frozenset({a, b}))

    def test_table_query_uses_two_hypotheses(self):
        s, ids = table_session()
        proof = s.resolve_query([ids[c] for c in "abd"])
        assert used_hypotheses(proof) == {0, 4}
        assert check(proof, 2, s.hypotheses, s.class_of) == {
            ids[c] for c in "abd"
        }

    def test_unknown_terms_not_entailed(self):
        s, ids = table_session()
        assert s.resolve_query([ids["a"], ids["b"], 99]) is None
        # still subreflexive when the collapsed set is small enough
        assert s.resolve_query([99, 99]) is not None

    def test_arbitrary_size_queries(self):
        s, ids = table_session()
        whole = [ids[c] for c in "abcdefg"]
        proof = s.resolve_query(whole)
        assert check(proof, 2, s.hypotheses, s.class_of) == set(whole)
        assert s.resolve_query([ids[c] for c in "abdf"]) is not None

    def test_query_purity(self):
        s, ids = table_session()
        snapshot = (
            [(r.id, r.terms, r.history, r.active) for r in s.ksets],
            {t: set(ps) for t, ps in s.term2parents.items()},
            list(s.hypotheses),
            s.stats(),
        )
        s.resolve_query([ids[c] for c in "abd"])
        s.resolve_query([ids[c] for c in "xyz" if c in ids] or [0, 1, 2])
        s.explain(8, [ids[c] for c in "efg"])
        s.kfun_eq([ids["a"], ids["b"]], [ids["f"], ids["g"]])
        s.stats()
        after = (
            [(r.id, r.terms, r.history, r.active) for r in s.ksets],
            {t: set(ps) for t, ps in s.term2parents.items()},
            list(s.hypotheses),
            s.stats(),
        )
        assert snapshot == after


class TestExplain:
    def test_golden_serialization(self):
        s, ids = table_session()
        proof = s.explain(8, [ids[c] for c in "abd"])
        assert (
            format_proof(proof, s.term_names)
            == "(project (trans (assume 0) (assume 4)) a b d)"
        )

    def test_assume_base_case(self):
        s = Session(2)
        ids = [s.intern_term(c) for c in "abc"]
        s.assert_hypothesis(ids)
        assert s.explain(0, ids) == s.explain(0, ids[:2])
        assert format_proof(s.explain(0, ids), s.term_names) == "(assume 0)"

    def test_subset_branch_single_hypothesis(self):
        s, ids = table_session()
        proof = s.explain(8, [ids[c] for c in "fge"])
        assert used_hypotheses(proof) == {2}
        assert check(proof, 2, s.hypotheses, s.class_of) >= {
            ids[c] for c in "efg"
        }

    def test_terms_outside_kset_rejected(self):
        s, ids = table_session()
        with pytest.raises(ValueError):
            s.explain(0, [ids["a"], ids["e"]])

    def test_history_proof_cites_everything(self):
        s, _ = table_session()
        proof = s.history_proof(8)
        assert used_hypotheses(proof) == {0, 1, 2, 3, 4}
        assert check(proof, 2, s.hypotheses, s.class_of) == set(range(7))


class TestKfunEq:
    def test_equal_anchors_trivial(self):
        s = Session(2)
        a, b = s.intern_term("a"), s.intern_term("b")
        assert s.kfun_eq([a, b], [a, b]) == SubRefl(frozenset({a, b}))

    def test_table_lines_coincide(self):
        s, ids = table_session()
        proof = s.kfun_eq([ids["a"], ids["b"]], [ids["f"], ids["g"]])
        assert proof is not None
        assert check(proof, 2, s.hypotheses, s.class_of) == {
            ids[c] for c in "abfg"
        }

    def test_distinct_lines(self):
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcde"}
        s.assert_hypothesis([ids[c] for c in "abc"])
        s.assert_hypothesis([ids[c] for c in "ade"])
        assert s.kfun_eq([ids["a"], ids["b"]], [ids["a"], ids["d"]]) is None

    def test_wrong_sizes_rejected(self):
        s = Session(2)
        ids = [s.intern_term(c) for c in "abc"]
        with pytest.raises(ValueError):
            s.kfun_eq(ids, ids[:2])


class TestStats:
    def test_table_counts(self):
        s, _ = table_session()
        st = s.stats()
        assert st.merges == 4
        assert st.active == 1
        assert st.hypotheses == 5

    def test_empty_session_zeroes(self):
        st = Session(3).stats()
        assert (st.merges, st.find_merges_calls, st.max_kset_size) == (0, 0, 0)

    def test_chain_merges_n_minus_one(self):
        n = 40
        s = Session(2)
        ids = [s.intern_term(f"t{i}") for i in range(n + 2)]
        for i in range(n):
            s.assert_hypothesis(ids[i : i + 3])
        assert s.stats().merges == n - 1
        assert s.active_count == 1


class TestInvariants:
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_fuzz_bounds_and_oracle(self, seed, k):
        rng = random.Random(seed)
        from helpers import random_instance

        n_terms, hyps, class_of = random_instance(
            rng, k, partitioned=rng.random() < 0.4
        )
        assert run_differential(k, n_terms, hyps, class_of) == []

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_order_insensitive_verdicts(self, order):
        import itertools

        base = Session(2)
        ids = {c: base.intern_term(c) for c in "abcdefg"}
        hyps = [tuple(ids[c] for c in h) for h in TABLE_HYPS]
        for h in hyps:
            base.assert_hypothesis(h)
        permuted = build_session(2, 7, [hyps[i] for i in order])
        for combo in itertools.combinations(range(7), 3):
            assert (base.resolve_query(combo) is None) == (
                permuted.resolve_query(combo) is None
            )

    def test_validate_catches_counters(self):
        s, _ = table_session()
        s.validate()
        s.counters.merges = 99
        with pytest.raises(AssertionError):
            s.check_counter_bounds()

    def test_counter_bounds_survive_optimize_flag(self):
        script = (
            "from kequiv import EngineInvariantError, Session\n"
            "s = Session(2)\n"
            "s.assert_hypothesis([s.intern_term(c) for c in 'abc'])\n"
            "s.counters.merges = 99\n"
            "try:\n"
            "    s.check_counter_bounds()\n"
            "except EngineInvariantError as e:\n"
            "    print(__debug__, e)\n"
        )
        src = os.path.dirname(os.path.dirname(kequiv.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout == "False merge count exceeded n-1\n"
        assert issubclass(EngineInvariantError, AssertionError)
