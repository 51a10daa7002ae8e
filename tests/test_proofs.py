import random

import pytest
from hypothesis import given, settings, strategies as st

from kequiv import (
    Assume,
    Project,
    ProofCheckError,
    ProofSyntaxError,
    SubRefl,
    Subst,
    Trans,
    check,
    format_proof,
    parse_proof,
    used_hypotheses,
)
from helpers import mutate_proof, random_instance, run_differential

# seven collinearity facts style context: ids 0..6 stand for a..g
HYPS = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 2, 3)]
NAMES = list("abcdefg")
IDS = {n: i for i, n in enumerate(NAMES)}


def test_golden_proof_checks():
    proof = Project(Trans(Assume(0), Assume(4)), frozenset({0, 1, 3}))
    assert check(proof, 2, HYPS) == {0, 1, 3}


def test_assume_concludes_hypothesis_set():
    assert check(Assume(2), 2, HYPS) == {4, 5, 6}


def test_assume_out_of_range():
    with pytest.raises(ProofCheckError) as e:
        check(Assume(9), 2, HYPS)
    assert e.value.path == ()


def test_subrefl_boundary():
    assert check(SubRefl(frozenset({0, 1})), 2, HYPS) == {0, 1}
    with pytest.raises(ProofCheckError, match="at most 2"):
        check(SubRefl(frozenset({0, 1, 2})), 2, HYPS)
    with pytest.raises(ProofCheckError, match="empty"):
        check(SubRefl(frozenset()), 2, HYPS)


def test_trans_needs_k_classes():
    # {a,b,c} and {c,d,e} share only c
    with pytest.raises(ProofCheckError, match="span 1"):
        check(Trans(Assume(0), Assume(1)), 2, HYPS)


def test_trans_partition_classes_counted():
    # overlap {b, c} collapses to one class when b and c are possibly equal
    proof = Trans(Assume(0), Assume(4))
    partition = {0: 0, 1: 1, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}
    with pytest.raises(ProofCheckError):
        check(proof, 2, HYPS, partition)
    assert check(proof, 2, HYPS) == {0, 1, 2, 3}


def test_project_must_be_subset():
    with pytest.raises(ProofCheckError, match="subset"):
        check(Project(Assume(0), frozenset({0, 5})), 2, HYPS)


def test_error_paths_locate_nodes():
    proof = Project(Trans(Assume(0), SubRefl(frozenset({0, 1, 2, 3}))), frozenset({0}))
    with pytest.raises(ProofCheckError) as e:
        check(proof, 2, HYPS)
    assert e.value.path == (0, 1)


def test_subst_rules():
    eqs = [(2, 9)]
    proof = Subst(Assume(0), 2, 9, 0)
    assert check(proof, 2, HYPS, equalities=eqs) == {0, 1, 9}
    # either orientation of the logged pair is fine
    assert check(Subst(Assume(0), 9, 2, 0), 2, HYPS, equalities=eqs) == {0, 1, 2}
    with pytest.raises(ProofCheckError, match="out of range"):
        check(Subst(Assume(0), 2, 9, 5), 2, HYPS, equalities=eqs)
    with pytest.raises(ProofCheckError, match="does not relate"):
        check(Subst(Assume(0), 1, 9, 0), 2, HYPS, equalities=eqs)


def test_subst_rejects_equality_across_classes():
    # 2 and 3 are known distinct, so the log entry (2, 3) is inconsistent
    partition = {0: 0, 1: 1, 2: 2, 3: 3}
    proof = Project(Subst(Assume(0), 2, 3, 0), frozenset({0, 3}))
    with pytest.raises(ProofCheckError, match="known-distinct") as e:
        check(proof, 2, [(0, 1, 2)], partition, [(2, 3)])
    assert e.value.path == (0,)
    partition[3] = 2
    assert check(proof, 2, [(0, 1, 2)], partition, [(2, 3)]) == {0, 3}


def test_subst_absent_term_is_identity():
    eqs = [(5, 9)]
    assert check(Subst(Assume(0), 5, 9, 0), 2, HYPS, equalities=eqs) == {0, 1, 2}


def test_check_is_pure_and_deterministic():
    proof = Project(Trans(Assume(0), Assume(4)), frozenset({0, 1, 3}))
    assert check(proof, 2, HYPS) == check(proof, 2, HYPS)


class TestUsedHypotheses:
    def test_golden(self):
        proof = Project(Trans(Assume(0), Assume(4)), frozenset({0, 1, 3}))
        assert used_hypotheses(proof) == {0, 4}

    def test_subrefl_empty(self):
        assert used_hypotheses(SubRefl(frozenset({0}))) == frozenset()

    def test_full_expansion(self):
        from helpers import build_session

        s = build_session(2, 7, HYPS)
        assert used_hypotheses(s.history_proof(8)) == {0, 1, 2, 3, 4}


class TestSerialization:
    def test_golden_text(self):
        proof = Project(Trans(Assume(0), Assume(4)), frozenset({0, 1, 3}))
        assert format_proof(proof, NAMES) == "(project (trans (assume 0) (assume 4)) a b d)"

    def test_round_trip(self):
        proofs = [
            Assume(3),
            SubRefl(frozenset({0, 4})),
            Project(Trans(Assume(0), Assume(4)), frozenset({0, 1, 3})),
            Subst(Project(Assume(1), frozenset({2, 3})), 2, 4, 7),
        ]
        for p in proofs:
            assert parse_proof(format_proof(p, NAMES), IDS) == p

    def test_parse_whitespace_insensitive(self):
        got = parse_proof("( project ( assume 0 )  a b )", IDS)
        assert got == Project(Assume(0), frozenset({0, 1}))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(assume)",
            "(assume 0",
            "assume 0)",
            "(assume 0) (assume 1)",
            "(frobnicate 1)",
            "(subrefl)",
            "(trans (assume 0))",
            "(project (assume 0))",
            "(subst (assume 0) a b)",
            "(subrefl zz)",
            "()",
            "(assume x)",
        ],
    )
    def test_parse_errors_are_located(self, text):
        with pytest.raises(ProofSyntaxError) as e:
            parse_proof(text, IDS)
        assert e.value.column >= 1

    def test_deep_proofs_survive_round_trip(self):
        # proofs from long merge chains nest far beyond the recursion limit
        from helpers import build_session

        n = 400
        hyps = [(i, i + 1, i + 2) for i in range(n)]
        s = build_session(2, n + 2, hyps)
        proof = s.resolve_query((0, n // 2, n + 1))
        text = format_proof(proof, s.term_names)
        ids = {name: i for i, name in enumerate(s.term_names)}
        assert format_proof(parse_proof(text, ids), s.term_names) == text
        assert check(proof, 2, s.hypotheses, s.class_of) == {0, n // 2, n + 1}


class TestMutationFuzz:
    def test_mutations_rejected_or_conclusion_changes(self):
        rng = random.Random(20260810)
        pool = []
        attempts = 0
        while len(pool) < 80:
            attempts += 1
            k = rng.choice([1, 2, 3])
            n_terms, hyps, class_of = random_instance(
                rng, k, partitioned=rng.random() < 0.3
            )
            run_differential(k, n_terms, hyps, class_of, proof_sink=pool)
            assert attempts < 2000
        violations = 0
        mutated_count = 0
        while mutated_count < 400:
            proof, conclusion, session = rng.choice(pool)
            mutant = mutate_proof(rng, proof, conclusion, session)
            if mutant is None:
                continue
            mutated_count += 1
            try:
                got = check(
                    mutant,
                    session.k,
                    session.hypotheses,
                    session.class_of,
                    session.equalities,
                )
            except ProofCheckError:
                continue
            if got == conclusion:
                violations += 1
        assert violations == 0


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_engine_kernel_agreement(seed):
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3])
    n_terms, hyps, class_of = random_instance(rng, k, partitioned=rng.random() < 0.3)
    # run_differential checks each emitted proof's conclusion internally
    assert run_differential(k, n_terms, hyps, class_of) == []
