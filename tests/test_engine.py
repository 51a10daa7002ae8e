import functools
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import kequiv
from dataclasses import asdict, replace

from kequiv import (
    Asserted,
    CongruenceState,
    EngineInvariantError,
    Merged,
    Rewritten,
    Session,
    check,
    closure_sets,
    covered,
    format_proof,
    parse_proof,
    used_hypotheses,
)
from helpers import (
    build_congruence,
    build_session,
    chain_shape,
    check_text,
    eq_chain_shape,
    eq_first_shape,
    pencil_closed_shape,
    pencil_shape,
    random_congruence_instance,
    run_differential,
    short_lines_shape,
    two_pencils_shape,
)

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
        assert s.stats().active == 2  # overlap {c} is below k

    def test_table_run_single_active(self):
        s, _ = table_session()
        assert [r.id for r in s.ksets if r.active] == [8]
        assert names(s, s.ksets[8].terms) == "abcdefg"

    def test_shared_point_does_not_collapse(self):
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcde"}
        s.assert_hypothesis([ids[c] for c in "abc"])
        s.assert_hypothesis([ids[c] for c in "ade"])
        assert s.stats().active == 2
        assert s.resolve_query([ids[c] for c in "bcd"]) is None

    def test_wrong_arity_rejected(self):
        s = Session(2)
        ids = [s.intern_term(c) for c in "abcd"]
        with pytest.raises(ValueError):
            s.assert_hypothesis(ids)
        with pytest.raises(ValueError) as e:
            s.assert_hypothesis(ids[:2])
        assert str(e.value) == "hypothesis needs exactly 3 terms, got 2"

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

    def test_first_id_past_the_table_rejected(self):
        s = Session(2)
        a, b = s.intern_term("a"), s.intern_term("b")
        with pytest.raises(ValueError, match="^unknown term id 2$"):
            s.assert_hypothesis([a, b, 2])
        assert not s.hypotheses


class TestArena:
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
        before = s.stats().active
        s.assert_hypothesis([ids[c] for c in "abd"])
        # one new k-set entered, two were retired, one union created
        assert s.stats().active == before
        assert names(s, s.ksets[-1].terms) == "abcd"

    def test_merge_needs_k_shared_classes(self):
        # only an engine bug asks to merge k-sets sharing fewer than k
        # classes; the session is left as it was
        s = two_record_session()
        with pytest.raises(EngineInvariantError, match="needs 2 distinctness classes"):
            s._merge(0, 1)
        s.validate()


def two_record_session():
    """Two active k-sets, ids 0 and 1, that share one term."""
    s = Session(2)
    x = [s.intern_term(t) for t in "abcde"]
    s.assert_hypothesis(x[:3])
    s.assert_hypothesis(x[2:])
    return s


class TestNegativeIds:
    # a negative id must not reach a record from the end of `ksets`

    def test_terms_of(self):
        s = two_record_session()
        with pytest.raises(ValueError, match="unknown k-set id -1"):
            s.terms_of(-1)

    def test_first_id_past_the_history(self):
        s = two_record_session()
        with pytest.raises(ValueError, match="^unknown k-set id 2$"):
            s.terms_of(2)
        for xs in ([0], []):
            with pytest.raises(ValueError, match="^unknown k-set id 2$"):
                s.explain(2, xs)

    def test_validate_rejects_a_cited_negative_id(self):
        s = Session(2)
        a, b, c, d = (s.intern_term(t) for t in "abcd")
        s.assert_hypothesis([a, b, c])
        s.assert_hypothesis([a, b, d])
        merged = s.history[2]
        assert merged == Merged(0, 1)
        # -2 names record 0 from the end, so the replay alone would agree
        s.history[2] = replace(merged, left=-2)
        with pytest.raises(EngineInvariantError, match="negative k-set id"):
            s.validate()


def test_public_surface():
    # the engine's steps (new k-set, merge search, merge) stay private, so
    # a caller reaches k-set storage only through these names
    def public(obj):
        return {n for n in dir(obj) if not n.startswith("_")}

    s = Session(2)
    s.assert_hypothesis([s.intern_term(c) for c in "abc"])
    assert public(s) == {
        "k", "hypotheses", "history", "handles", "term2parents", "live",
        "owner", "terms", "equalities", "counters", "ksets", "term_names",
        "class_of", "intern_term", "mark_possibly_equal", "assert_hypothesis",
        "rename_term", "parents_of", "terms_of", "resolve_query", "explain",
        "kfun_eq", "stats", "check_counter_bounds", "validate",
    }
    assert public(s.ksets[0]) == {
        "id", "history", "active", "terms", "count", "index"
    }
    assert public(CongruenceState({"coll": 2})) == {
        "terms", "equalities", "sessions", "term_names", "intern_term",
        "term_id", "mark_possibly_equal", "assert_atom", "assert_eq",
        "query_atom",
    }


class TestFindMergesWithPartition:
    def test_same_class_overlap_does_not_count(self):
        # b and c possibly equal: facts through {b,c} share only one class
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcd"}
        s.mark_possibly_equal([ids["b"], ids["c"]])
        s.assert_hypothesis([ids[c] for c in "abc"])
        s.assert_hypothesis([ids[c] for c in "bcd"])
        assert s.stats().active == 2
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
        assert s.stats().active == 1
        assert s.ksets[-1].terms == {a1, a2, b, c}
        proof = s.resolve_query([a1, a2, b])
        assert proof is not None
        assert check_text(proof, s) == {a1, a2, b}

    @pytest.mark.parametrize(
        "labels", [(5, 5, 7, 8), ("a", "a", "b", "c"), ((1,), (1,), (2, 0), ())]
    )
    def test_any_hashable_partition_label(self, labels):
        # a partition's labels need not be ints; each class is labelled by
        # the id of its first term, whatever its labels were
        s = Session(2, dict(enumerate(labels)))
        a1, a2, b, c = (s.intern_term(n) for n in ("a1", "a2", "b", "c"))
        assert s.class_of == {a1: a1, a2: a1, b: b, c: c}
        s.assert_hypothesis([a1, b, c])
        s.assert_hypothesis([a2, b, c])
        assert s.stats().active == 1
        assert check_text(s.resolve_query([a1, a2, b]), s) == {a1, a2, b}

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
        assert s.resolve_query([a, a, b]) == ["(subrefl a b)"]

    def test_table_query_uses_two_hypotheses(self):
        s, ids = table_session()
        proof = format_proof(s.resolve_query([ids[c] for c in "abd"]), s.term_names)
        assert used_hypotheses(proof) == {0, 4}
        assert check(proof, 2, s.hypotheses, s.class_of, ids=ids) == {
            ids[c] for c in "abd"
        }

    def test_unknown_terms_not_entailed(self):
        s, ids = table_session()
        with pytest.raises(ValueError, match="unknown term id 99"):
            s.resolve_query([ids["a"], ids["b"], 99])
        # also when the collapsed set is small enough to be subreflexive
        with pytest.raises(ValueError, match="unknown term id 99"):
            s.resolve_query([99, 99])
        with pytest.raises(ValueError, match="unknown term id -1"):
            s.resolve_query([-1])

    def test_arbitrary_size_queries(self):
        s, ids = table_session()
        whole = [ids[c] for c in "abcdefg"]
        proof = s.resolve_query(whole)
        assert check_text(proof, s) == set(whole)
        assert s.resolve_query([ids[c] for c in "abdf"]) is not None

    def test_query_purity(self):
        s, ids = table_session()
        snapshot = (
            [(r.id, r.terms, r.history, r.active) for r in s.ksets],
            {t: set(s.parents_of(t)) for t in s.term2parents},
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
            {t: set(s.parents_of(t)) for t in s.term2parents},
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
        proof = format_proof(s.explain(8, [ids[c] for c in "fge"]), s.term_names)
        assert used_hypotheses(proof) == {2}
        assert check(proof, 2, s.hypotheses, s.class_of, ids=ids) >= {
            ids[c] for c in "efg"
        }

    def test_rewritten_pull_back_is_exact(self):
        # `eq c d` retires d, and a rename record asks its source for the
        # preimage of the terms asked of it: d for c when c is new there,
        # both when c was already there, and not d when c is not asked
        cases = [
            ("abd", False, "abc", "(subst (assume 0) d c 0)"),
            (
                "abc abd",
                True,
                "abc",
                "(subst (project (trans (assume 0) (assume 1)) a b c d) d c 0)",
            ),
            ("abd abe", False, "abe", "(assume 1)"),
        ]
        for hyps, already, query, expected in cases:
            state = CongruenceState({"coll": 2})
            ids = {t: state.intern_term(t) for t in "abcde"}
            state.mark_possibly_equal([ids["c"], ids["d"]])
            for h in hyps.split():
                state.assert_atom("coll", [ids[t] for t in h])
            state.assert_eq(ids["c"], ids["d"])
            session = state.sessions["coll"]
            n = len(session.ksets) - 1
            renamed = Rewritten(n - 1, ids["d"], ids["c"], already)
            assert session.ksets[n].history == renamed
            xs = [ids[t] for t in query]
            proof = state.query_atom("coll", xs)
            assert format_proof(proof, state.term_names) == expected
            assert check_text(proof, session) == set(xs)

    def test_equality_log_is_written_only_through_union(self):
        # a pair logged past the union-find and the forest would leave the
        # renamed k-set below without an equality path to explain it
        state = CongruenceState({"r": 1})
        x, y, w = (state.intern_term(c) for c in "xyw")
        state.mark_possibly_equal([x, y])
        state.assert_atom("r", [w, y])
        eqs = state.equalities
        with pytest.raises(AttributeError):
            eqs.append((x, y))
        with pytest.raises(AttributeError):
            eqs.extend([(x, y)])
        with pytest.raises(TypeError):
            state.equalities += [(x, y)]
        with pytest.raises(TypeError):
            eqs[0] = (x, y)
        assert len(eqs) == 0 and state.equalities is eqs
        state.assert_eq(x, y)
        assert list(eqs) == [(x, y)] and eqs[0] == (x, y)
        session = state.sessions["r"]
        assert session.ksets[-1].history == Rewritten(0, y, x, False)
        proof = state.query_atom("r", [x, w])
        assert check_text(proof, session) == {x, w}

    def test_terms_outside_kset_rejected(self):
        s, ids = table_session()
        with pytest.raises(ValueError):
            s.explain(0, [ids["a"], ids["e"]])
        with pytest.raises(ValueError):
            s.explain(-1, [ids["a"]])
        one = build_session(2, 3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            one.explain(5, [0])

    def test_whole_kset_explain_cites_everything(self):
        s, ids = table_session()
        proof = format_proof(s.explain(8, range(7)), s.term_names)
        assert used_hypotheses(proof) == {0, 1, 2, 3, 4}
        assert check(proof, 2, s.hypotheses, s.class_of, ids=ids) == set(range(7))


class TestKfunEq:
    def test_equal_anchors_trivial(self):
        s = Session(2)
        a, b = s.intern_term("a"), s.intern_term("b")
        assert s.kfun_eq([a, b], [a, b]) == ["(subrefl a b)"]

    def test_table_lines_coincide(self):
        s, ids = table_session()
        proof = s.kfun_eq([ids["a"], ids["b"]], [ids["f"], ids["g"]])
        assert proof is not None
        assert check_text(proof, s) == {ids[c] for c in "abfg"}

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

    def test_stored_counters_hold_no_structure_counts(self):
        # the numbers of hypotheses and of active k-sets are read off the
        # session, so no stored counter can lag behind them
        s = Session(2)
        s.assert_hypothesis([s.intern_term(c) for c in "abc"])
        st = s.stats()
        assert (st.hypotheses, st.active) == (1, 1)
        assert not hasattr(s.counters, "hypotheses")
        assert not hasattr(s.counters, "active")
        assert {**vars(s.counters), "hypotheses": 1, "active": 1} == vars(st)

    def test_chain_merges_n_minus_one(self):
        n = 40
        s = Session(2)
        ids = [s.intern_term(f"t{i}") for i in range(n + 2)]
        for i in range(n):
            s.assert_hypothesis(ids[i : i + 3])
        assert s.stats().merges == n - 1
        assert s.stats().active == 1


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

    def test_one_hypothesis_allows_no_merge(self):
        s = Session(2)
        s.assert_hypothesis([s.intern_term(c) for c in "abc"])
        s.counters.merges = 1
        with pytest.raises(EngineInvariantError, match="merge count exceeded n-1"):
            s.check_counter_bounds()

    @pytest.mark.parametrize("hyp, added", [("abd", 1), ("def", 0)])
    def test_rename_registers_only_a_swapped_in_term(self, hyp, added):
        # `eq e d` retires d: a k-set without e registers e, one with it
        # registers nothing, and the renamed k-sets merge with nothing
        s = Session(2)
        ids = {c: s.intern_term(c) for c in "abcdef"}
        s.mark_possibly_equal([ids["d"], ids["e"]])
        s.assert_hypothesis([ids[c] for c in hyp])
        before = s.stats().registrations
        assert s.equalities.union(ids["e"], ids["d"]) == ids["d"]
        s.rename_term(ids["d"])
        assert s.stats().registrations - before == added
        assert s.stats().merges == 0
        s.validate()

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
            "from dataclasses import replace\n"
            "corruptions = {\n"
            "    'parents': lambda s: s.term2parents.__setitem__(0, 7),\n"
            "    'one-parent set': lambda s: s.term2parents.__setitem__(\n"
            "        0, {s.term2parents[0]}),\n"
            "    'empty': lambda s: s.live[0].clear(),\n"
            "    'anchor': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], anchor=(0,))),\n"
            "    'anchor set': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], anchor=frozenset({0, 1}))),\n"
            "    'repeated anchor': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], anchor=(0, 1, 1))),\n"
            "    'absorbed': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], absorbed_terms=frozenset({0, 1, 2}))),\n"
            "    'moved': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], absorbed_terms=2)),\n"
            "    'full form': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], absorbed_terms=frozenset({0, 1, 3}))),\n"
            "    'two moved': lambda s: s.history.__setitem__(\n"
            "        10, replace(s.history[10], absorbed_terms=7)),\n"
            "    'handle': lambda s: s.owner.update({s.handles[2]: 1}),\n"
            "    'already': lambda s: s.history.__setitem__(\n"
            "        3, replace(s.history[3], already=True)),\n"
            "    'renames': lambda s: s.history.__setitem__(\n"
            "        4, replace(s.history[4], renames=())),\n"
            "    'self cite': lambda s: s.history.__setitem__(\n"
            "        2, replace(s.history[2], left=2)),\n"
            "    'self rename': lambda s: s.history.__setitem__(\n"
            "        3, replace(s.history[3], source=3)),\n"
            "    # the second hypothesis asserted unmerged, beside the first\n"
            "    'overlap': lambda s: (\n"
            "        setattr(s, '_find_merges', lambda n, renamed=None: None),\n"
            "        s.assert_hypothesis([0, 1, 3])),\n"
            "}\n"
            "for corrupt, apply in corruptions.items():\n"
            "    s = Session(2)\n"
            "    a, b, c, d, e, f, g, h = (s.intern_term(t) for t in 'abcdefgh')\n"
            "    s.mark_possibly_equal([d, e])\n"
            "    s.assert_hypothesis([a, b, c])\n"
            "    if corrupt not in ('empty', 'overlap'):\n"
            "        s.assert_hypothesis([a, b, d])\n"
            "        # `eq e d` renames d in k-set 2 (k-set 3), then renames the\n"
            "        # next hypothesis as it is asserted (active k-set 4)\n"
            "        s.rename_term(s.equalities.union(e, d))\n"
            "        s.assert_hypothesis([d, e, f])\n"
            "    if corrupt == 'two moved':\n"
            "        # k-set 10 absorbs (a f g h), moving f and h (ids 5 and 7)\n"
            "        for xs in ([a, f, g], [f, g, h], [a, b, g]):\n"
            "            s.assert_hypothesis(xs)\n"
            "    s.validate()\n"
            "    apply(s)\n"
            "    try:\n"
            "        s.validate()\n"
            "    except EngineInvariantError as e:\n"
            "        print(__debug__, e)\n"
            "s = Session(1)\n"
            "a, b, c = (s.intern_term(t) for t in 'abc')\n"
            "s.mark_possibly_equal([a, b])\n"
            "s.assert_hypothesis([a, c])\n"
            "s.equalities.union(b, a)\n"
            "s.rename_term(a)\n"
            "del s.equalities.forest[a]\n"
            "try:\n"
            "    s.explain(len(s.history) - 1, [b, c])\n"
            "except EngineInvariantError as e:\n"
            "    print(__debug__, e)\n"
            "s = Session(2)\n"
            "x = [s.intern_term(t) for t in 'abcde']\n"
            "s.assert_hypothesis(x[:3])\n"
            "s.assert_hypothesis(x[2:])\n"
            "try:\n"
            "    s._merge(0, 1)\n"
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
        assert done.stdout == (
            "False merge count exceeded n-1\n"
            "False parent map out of sync for term 0\n"
            "False term 0 has a non-canonical parent entry\n"
            "False k-set 0 is empty\n"
            "False k-set 2 stores a wrong anchor\n"
            "False k-set 2 stores its anchor in the wrong form\n"
            "False k-set 2 stores its anchor in the wrong form\n"
            "False k-set 2 stores the wrong absorbed side\n"
            "False k-set 2 stores the wrong absorbed side\n"
            "False k-set 2 stores its absorbed side in the wrong form\n"
            "False k-set 10 stores its absorbed side in the wrong form\n"
            "False handle map out of sync\n"
            "False k-set 3 misrecords its renamed term\n"
            "False k-set 4 disagrees with its history\n"
            "False k-set 2 cites a later k-set\n"
            "False k-set 3 cites a later k-set\n"
            "False active k-sets 0 and 1 share 2 classes\n"
            "False no equality path between renamed terms\n"
            "False merge needs 2 distinctness classes in the overlap\n"
        )
        assert issubclass(EngineInvariantError, AssertionError)


def mid_scale_instance(rng, k, partitioned):
    """(n_terms, hypotheses, class_of) with 300 facts over 120 terms.

    292 facts lie inside one of 15 disjoint groups of 8 terms, 8 cross
    them.  Partitioned instances put three terms of every group, and of
    five random triples, into one class, so k-sets hold several terms of a
    class.
    """
    n_terms = 120
    order = rng.sample(range(n_terms), n_terms)
    groups = [order[i : i + 8] for i in range(0, n_terms, 8)]
    class_of = {t: t for t in range(n_terms)}
    if partitioned:
        for g in groups + [rng.sample(range(n_terms), 3) for _ in range(5)]:
            first, *mates = rng.sample(g, 3)
            for t in mates:
                old = class_of[t]
                for u, c in class_of.items():
                    if c == old:
                        class_of[u] = class_of[first]
    hyps = [tuple(rng.sample(rng.choice(groups), k + 1)) for _ in range(292)]
    hyps += [tuple(rng.sample(range(n_terms), k + 1)) for _ in range(8)]
    rng.shuffle(hyps)
    return n_terms, hyps, class_of


@pytest.mark.parametrize("partitioned", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mid_scale_oracle_differential(k, partitioned):
    for seed in range(3):
        rng = random.Random(100 * k + 10 * partitioned + seed)
        n_terms, hyps, class_of = mid_scale_instance(rng, k, partitioned)
        s = build_session(k, n_terms, hyps, class_of)
        family = closure_sets(k, hyps, class_of)
        active = [rec.terms for rec in s.ksets if rec.active]
        assert {terms for terms in active if len(terms) > k} == family
        if partitioned:
            assert any(len({class_of[t] for t in ts}) < len(ts) for ts in active)
        queries = [tuple(rng.sample(range(n_terms), k + 1)) for _ in range(200)]
        sets = sorted(family, key=sorted)
        for f in sets:
            other = rng.choice(sets)
            outside = rng.choice([t for t in range(n_terms) if t not in f])
            queries += [
                tuple(f),
                tuple(rng.sample(sorted(f), k + 1)),
                tuple(f | {outside}),
                tuple(rng.sample(sorted(f), k)) + (rng.choice(sorted(other)),),
            ]
        for q in queries:
            proof = s.resolve_query(q)
            assert (proof is not None) == covered(k, q, family), q
            if proof is not None:
                assert check_text(proof, s) == frozenset(q)
        s.validate()


def test_snapshots_outlive_their_session():
    s = Session(2)
    x = [s.intern_term(t) for t in "abcd"]
    s.assert_hypothesis(x[:3])
    s.assert_hypothesis(x[1:])
    views = s.ksets
    assert views[0] is not s.ksets[0]
    del s
    assert views[2].terms == frozenset(x) and views[0].terms == frozenset(x[:3])
    assert [v.active for v in views] == [False, False, True]
    with pytest.raises(AttributeError):
        views[2].active = False


def shape_registrations(build, n):
    """`Stats.registrations` after asserting one workload shape of size n."""
    session, steps = build(n)
    for fn, arg in steps:
        fn(arg)
    return session.stats().registrations


@pytest.mark.parametrize(
    "shape",
    [
        chain_shape,
        pencil_closed_shape,
        eq_chain_shape,
        eq_first_shape,
        *(functools.partial(short_lines_shape, k=k) for k in (1, 2, 3)),
    ],
    ids=[
        "chain",
        "pencil",
        "eq-chain",
        "eq-first",
        *(f"short-lines-k{k}" for k in (1, 2, 3)),
    ],
)
def test_registrations_grow_near_linearly(shape):
    # each doubling of n must multiply the (term, k-set) registrations by
    # less than 2.3; copying every fused k-set whole, the chain's quadruple
    counts = [shape_registrations(shape, n) for n in (1000, 2000, 4000)]
    assert all(b < 2.3 * a for a, b in zip(counts, counts[1:])), counts


@pytest.mark.parametrize(
    "k, expected",
    [
        (1, (1200, 2259, 8, 2, 4315)),
        (2, (1000, 1937, 8, 3, 4817)),
        (3, (800, 1585, 8, 3, 4941)),
    ],
)
def test_short_lines_work_is_pinned(k, expected):
    # merges, find_merges rounds, largest k-set, largest parent list and
    # registrations on 200 short lines, as counted before the assert path
    # was trimmed; a leaner path must do the same work
    session, steps = short_lines_shape(200, k)
    for fn, arg in steps:
        fn(arg)
    session.validate()
    stats = asdict(session.stats())
    assert stats["hypotheses"] == 200 * (8 - k) and stats["active"] == 200
    assert stats["rewrites"] == 0
    counted = ("merges", "find_merges_calls", "max_kset_size", "max_parents")
    assert tuple(stats[name] for name in (*counted, "registrations")) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_short_lines_peak_bytes_per_hypothesis(k):
    # the ladder's peak-short-lines rung at n = 1000 (k = 2; k = 1 and 3 as
    # well), terms interned before tracing and the collector paused: a bare
    # handle per one-parent term, a bare moved term in a merge record that
    # moved at most one, and a tuple for each anchor keep the peak under
    # 550 / 600 / 650 B per hypothesis (493 / 555 / 616; at k = 2, a `set`
    # per term read 1,128, a frozenset of the absorbed side in every merge
    # record 835, and a frozenset for each anchor 688)
    session, steps = short_lines_shape(1000, k)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for fn, arg in steps:
            fn(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= {1: 550, 2: 600, 3: 650}[k] * len(steps), peak / len(steps)


def test_two_pencils_close_as_the_oracle_does():
    # the 2n pencil lines stay apart, and the n joining hypotheses fuse
    # into one line through both hubs
    n = 20
    session, steps = two_pencils_shape(n)
    for fn, arg in steps:
        fn(arg)
    session.validate()
    active = {frozenset(session.terms_of(m)) for m in session.owner.values()}
    assert active == closure_sets(2, session.hypotheses)
    assert len(active) == 2 * n + 1


def test_rename_scan_is_exact():
    # a hypothesis naming the representative that `eq a b` retired is
    # rewritten; after only `eq a a` nothing was retired, so none is
    joined = CongruenceState({"coll": 2})
    a, b, c, d = (joined.intern_term(t) for t in "abcd")
    joined.mark_possibly_equal([a, b])
    joined.assert_eq(a, b)
    assert joined.equalities.find(b) == a
    joined.assert_atom("coll", [b, c, d])
    session = joined.sessions["coll"]
    assert [r.history for r in session.ksets] == [Asserted(0, ((b, a),))]
    assert session.ksets[-1].terms == {a, c, d}
    assert session.stats().rewrites == 1
    session.validate()

    reflexive = CongruenceState({"coll": 2})
    a, b, c, d = (reflexive.intern_term(t) for t in "abcd")
    reflexive.mark_possibly_equal([a, b])
    reflexive.assert_eq(a, a)
    reflexive.assert_atom("coll", [b, c, d])
    reflexive.assert_atom("coll", [a, c, d])
    session = reflexive.sessions["coll"]
    assert [r.history for r in session.ksets] == [
        Asserted(0), Asserted(1), Merged(0, 1)
    ]
    assert session.stats().rewrites == 0
    session.validate()


def test_rename_of_a_representative_is_refused():
    # `old` must be a retired representative: renaming a term that is
    # still its own would drop it from its k-sets
    s = Session(2)
    a, b, c = (s.intern_term(t) for t in "abc")
    s.assert_hypothesis([a, b, c])
    before = (list(s.history), dict(s.term2parents), s.stats())
    with pytest.raises(ValueError, match="still its own representative"):
        s.rename_term(a)
    assert (list(s.history), dict(s.term2parents), s.stats()) == before
    assert s.resolve_query([a, b, c]) == ["(assume 0)"]
    s.validate()


# The proof walk's one output: the text pieces every query returns join
# to canonical text, which `parse_proof` reads, and which checks, on every
# path.


def solve_text(session, xs):
    """The proof text for query `xs`, after checking that it is canonical
    and that `check` gives the query's representatives; None if not
    entailed."""
    pieces = session.resolve_query(xs)
    if pieces is None:
        return None
    assert all(type(piece) is str for piece in pieces)
    text = format_proof(pieces, session.term_names)
    assert text == "".join(pieces)
    assert_canonical(session, text)
    assert check_text(pieces, session) == frozenset(map(session.equalities.find, xs))
    return text


def assert_canonical(session, text):
    """`text` reads as proof text, and is canonical: its tokens are
    parted by single spaces, none next to a parenthesis's inner side,
    and each `subrefl` or `project` lists its terms once each, in
    ascending id order."""
    ids = session.terms.term_ids
    assert parse_proof(text, ids) == text
    tokens = re.findall(r"[()]|[^\s()]+", text)
    assert " ".join(tokens).replace("( ", "(").replace(" )", ")") == text
    open_nodes = []  # the head and term atoms of each open node
    for token in tokens:
        if token == "(":
            open_nodes.append([])
        elif token == ")":
            head, *atoms = open_nodes.pop()
            if head in ("subrefl", "project"):
                terms = [ids[atom] for atom in atoms]
                assert terms == sorted(set(terms)), text
        else:
            open_nodes[-1].append(token)


def explain_texts(session, rng, records, texts):
    """Explain each record from a few of its term subsets and check each
    text; subsets of at most k terms reach `project` over a rename, which
    no query does."""
    for n in records:
        terms = sorted(session.terms_of(n))
        for _ in range(3):
            xs = frozenset(rng.sample(terms, rng.randint(1, len(terms))))
            pieces = session.explain(n, xs)
            text = format_proof(pieces, session.term_names)
            assert_canonical(session, text)
            conclusion = check_text(pieces, session)
            # a bare hypothesis concludes its own terms, a superset
            assert conclusion == xs or (
                text.startswith("(assume ") and conclusion > xs
            )
            texts.append(text)


def rewritten_kinds(session):
    """The kinds of renamed record in the session's history."""
    kinds = set()
    for rec in session.ksets:
        h = rec.history
        if isinstance(h, Rewritten):
            kinds.add(f"rename_term, already {h.already}")
        elif isinstance(h, Asserted) and h.renames:
            kinds.add(f"assert-time, {'one pair' if len(h.renames) == 1 else 'pairs'}")
    return kinds


def test_program_text_equals_tree_text():
    kinds, texts = set(), []
    for seed in range(300):
        rng = random.Random(seed)
        k = rng.choice([1, 2, 3])
        n_terms, class_of, statements = random_congruence_instance(rng, k)
        state = build_congruence(k, n_terms, class_of, statements)
        session = state.sessions["r"]
        for combo in itertools.combinations(range(n_terms), k + 1):
            text = solve_text(session, combo)
            pieces = state.query_atom("r", combo)
            assert text == (pieces and format_proof(pieces, state.term_names))
        explain_texts(session, rng, range(len(session.history)), texts)
        kinds |= rewritten_kinds(session)
    assert kinds == {
        "assert-time, one pair",
        "assert-time, pairs",
        "rename_term, already True",
        "rename_term, already False",
    }, kinds
    assert any(t.startswith("(project (subst ") for t in texts)


@pytest.mark.parametrize("eq_first", [False, True], ids=["rewritten", "renamed"])
def test_renamed_right_side_is_explained(eq_first):
    # the walk writes a merge's right side with its closer only when it is
    # a bare hypothesis; a rename record, or a hypothesis renamed as it was
    # asserted, still gets its `subst`
    state = CongruenceState({"coll": 2})
    a, b, c, p, q = (state.intern_term(t) for t in "abcpq")
    state.mark_possibly_equal([p, q])
    if eq_first:
        state.assert_eq(p, q)
        state.assert_atom("coll", [a, c, p])
    state.assert_atom("coll", [a, b, q])
    if not eq_first:
        state.assert_atom("coll", [a, c, p])
        state.assert_eq(p, q)
    session = state.sessions["coll"]
    right = session.ksets[session.ksets[-1].history.right].history
    if eq_first:
        assert right == Asserted(1, ((q, p),))
        expected = "(project (trans (assume 0) (subst (assume 1) q p 0)) b c p)"
    else:
        assert right == Rewritten(0, q, p, False)
        expected = "(project (trans (assume 1) (subst (assume 0) q p 0)) b c p)"
    assert solve_text(session, [b, c, p]) == expected


@pytest.mark.parametrize(
    "build, n",
    [
        (chain_shape, 150),
        (pencil_shape, 150),
        (pencil_closed_shape, 150),
        (eq_chain_shape, 60),
        (eq_first_shape, 60),
    ],
    ids=["chain", "pencil", "pencil-closed", "eq-chain", "eq-first"],
)
def test_program_text_equals_tree_text_on_shapes(build, n):
    rng = random.Random(n)
    session, steps = build(n)
    for fn, arg in steps:
        fn(arg)
    n_terms = len(session.term_names)
    queries = [rng.sample(range(n_terms), 3) for _ in range(100)]
    active = sorted(session.owner.values())
    for _ in range(90):
        queries.append(rng.sample(sorted(session.terms_of(rng.choice(active))), 3))
    entailed = [q for q in queries if solve_text(session, q) is not None]
    assert len(entailed) >= 90
    explain_texts(session, rng, rng.sample(range(len(session.history)), 30), [])


def test_program_renders_a_ten_thousand_level_proof():
    n = 10_000
    session, steps = chain_shape(n)
    for fn, arg in steps:
        fn(arg)
    text = solve_text(session, (0, 1, n + 1))
    assert text.count("(trans ") > n // 2
