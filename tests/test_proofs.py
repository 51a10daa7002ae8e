import collections
import itertools
import json
import pathlib
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import kequiv.proofs
from kequiv import (
    ProofCheckError,
    ProofSyntaxError,
    Session,
    check,
    format_proof,
    parse_proof,
    used_hypotheses,
)
from helpers import (
    build_congruence,
    check_text,
    mutate_proof,
    random_congruence_instance,
    random_instance,
    run_congruence_differential,
    run_differential,
)

# seven collinearity facts style context: ids 0..6 stand for a..g
HYPS = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 2, 3)]
NAMES = list("abcdefg")
IDS = {n: i for i, n in enumerate(NAMES)}
# each term id named by its numeral, for terms beyond a..g
NUMERALS = {str(i): i for i in range(20)}
GOLDEN = "(project (trans (assume 0) (assume 4)) a b d)"


def test_golden_proof_checks():
    assert check(GOLDEN, 2, HYPS, ids=IDS) == {0, 1, 3}


def test_assume_concludes_hypothesis_set():
    assert check("(assume 2)", 2, HYPS, ids=IDS) == {4, 5, 6}


def test_assume_out_of_range():
    with pytest.raises(ProofCheckError) as e:
        check("(assume 9)", 2, HYPS, ids=IDS)
    assert e.value.path == ()
    # the longest index proof text may hold is read, and judged
    index = "1" + "0" * 639
    with pytest.raises(ProofCheckError, match="hypothesis index 10* out of range"):
        check(f"(assume {index})", 2, HYPS, ids=IDS)
    with pytest.raises(ProofCheckError, match="equality index 10* out of range"):
        check(f"(subst (assume 0) a b {index})", 2, HYPS, None, [(0, 1)], ids=IDS)


def test_subrefl_boundary():
    assert check("(subrefl a b)", 2, HYPS, ids=IDS) == {0, 1}
    with pytest.raises(ProofCheckError, match="at most 2"):
        check("(subrefl a b c)", 2, HYPS, ids=IDS)


def test_trans_needs_k_classes():
    # {a,b,c} and {c,d,e} share only c
    with pytest.raises(ProofCheckError, match="span 1"):
        check("(trans (assume 0) (assume 1))", 2, HYPS, ids=IDS)


def test_trans_partition_classes_counted():
    # overlap {b, c} collapses to one class when b and c are possibly equal
    proof = "(trans (assume 0) (assume 4))"
    partition = {0: 0, 1: 1, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}
    with pytest.raises(ProofCheckError):
        check(proof, 2, HYPS, partition, ids=IDS)
    assert check(proof, 2, HYPS, ids=IDS) == {0, 1, 2, 3}


def test_project_must_be_subset():
    with pytest.raises(ProofCheckError, match="subset"):
        check("(project (assume 0) a f)", 2, HYPS, ids=IDS)


def test_error_paths_locate_nodes():
    proof = "(project (trans (assume 0) (subrefl a b c d)) a)"
    with pytest.raises(ProofCheckError) as e:
        check(proof, 2, HYPS, ids=IDS)
    assert e.value.path == (0, 1)


def test_error_text_bounds_long_paths():
    # up to 16 indices the path is spelled out; beyond, its ends and depth
    e = ProofCheckError((0,) * 15 + (1,), "m")
    assert str(e) == "at root" + ".0" * 15 + ".1: m"
    path = (0,) * 8 + (1,) * 9
    e = ProofCheckError(list(path), "m")
    assert str(e) == "at root.0.0.0.0.0.0.0.0 ... .1.1.1.1.1.1.1.1 (depth 17): m"
    assert (e.path, e.message) == (path, "m")


def test_terms_outside_the_partition_are_judged_in_one_pass():
    # each term the partition does not map is a class of its own; the
    # shared terms are b and c
    text = "(trans (assume 0) (assume 4))"
    with mock.patch.object(
        kequiv.proofs, "parse_proof", side_effect=AssertionError("second reader")
    ):
        for partition in ({0: 0}, {1: 1}):
            assert check(text, 2, HYPS, partition, ids=IDS) == {0, 1, 2, 3}
    # a failing line is judged in the same pass, which raises its error
    with mock.patch.object(
        kequiv.proofs, "parse_proof", side_effect=AssertionError("second reader")
    ):
        with pytest.raises(ProofCheckError) as e:
            check("(trans (assume 0) (assume 1))", 2, HYPS, {0: 0}, ids=IDS)
    assert str(e.value) == "at root: shared terms span 1 distinctness classes, need 2"


def test_subst_rules():
    eqs = [(2, 9)]

    def judge(proof):
        return check(proof, 2, HYPS, equalities=eqs, ids=NUMERALS)

    assert judge("(subst (assume 0) 2 9 0)") == {0, 1, 9}
    # either orientation of the logged pair is fine
    assert judge("(subst (assume 0) 9 2 0)") == {0, 1, 2}
    with pytest.raises(ProofCheckError, match="out of range"):
        judge("(subst (assume 0) 2 9 5)")
    with pytest.raises(ProofCheckError, match="does not relate"):
        judge("(subst (assume 0) 1 9 0)")
    # a log entry that is not a pair raises
    with pytest.raises(ValueError):
        check("(subst (assume 0) c f 0)", 2, HYPS, equalities=[(2, 5, 1)], ids=IDS)


def test_subst_rejects_equality_across_classes():
    # 2 and 3 are known distinct, so the log entry (2, 3) is inconsistent
    partition = {0: 0, 1: 1, 2: 2, 3: 3}
    proof = "(project (subst (assume 0) 2 3 0) 0 3)"
    with pytest.raises(ProofCheckError, match="known-distinct") as e:
        check(proof, 2, [(0, 1, 2)], partition, [(2, 3)], ids=NUMERALS)
    assert e.value.path == (0,)
    partition[3] = 2
    assert check(proof, 2, [(0, 1, 2)], partition, [(2, 3)], ids=NUMERALS) == {0, 3}


def test_subst_absent_term_is_identity():
    eqs = [(5, 9)]
    proof = "(subst (assume 0) 5 9 0)"
    assert check(proof, 2, HYPS, equalities=eqs, ids=NUMERALS) == {0, 1, 2}


def test_check_is_pure_and_deterministic():
    assert check(GOLDEN, 2, HYPS, ids=IDS) == check(GOLDEN, 2, HYPS, ids=IDS)


class TestUsedHypotheses:
    def test_golden(self):
        assert used_hypotheses(GOLDEN) == {0, 4}

    def test_subrefl_empty(self):
        assert used_hypotheses("(subrefl a)") == frozenset()

    def test_full_expansion(self):
        line = "(trans (trans (trans (assume 0) (assume 4)) (assume 1)) (assume 3))"
        proof = f"(project (trans {line} (subst (assume 2) 5 9 0)) 0 1 9)"
        assert used_hypotheses(proof) == {0, 1, 2, 3, 4}
        assert check(proof, 2, HYPS, equalities=[(5, 9)], ids=NUMERALS) == {0, 1, 9}

    def test_whitespace_variants(self):
        # any whitespace `check` reads as a space, around and inside nodes
        text = "(trans (project (assume 3) a d) (subst (assume 0) b c 0))"
        assert used_hypotheses(text) == {0, 3}
        assert used_hypotheses("( assume 3 )") == {3}
        for space in ["  ", "\t", "\x1c", "\u3000"]:
            spaced = space + text.replace(" ", space).replace("(", "(" + space)
            spaced = spaced.replace(")", space + ")")
            assert parse_proof(spaced, IDS) == spaced
            assert used_hypotheses(spaced) == {0, 3}


def exact(text, column, message):
    # the id is the text and the column
    return pytest.param(text, column, message, id=f"{text}-{column}")


class TestSerialization:
    def test_golden_text(self):
        # the engine's pieces for the query (a b d) join to the golden text
        s = Session(2)
        for name in NAMES:
            s.intern_term(name)
        for hyp in HYPS:
            s.assert_hypothesis(hyp)
        pieces = s.resolve_query([IDS["a"], IDS["b"], IDS["d"]])
        assert format_proof(pieces, s.term_names) == GOLDEN

    def test_round_trip(self):
        # `parse_proof` gives back the text `format_proof` joined
        for text in [
            "(assume 3)",
            "(subrefl a e)",
            GOLDEN,
            "(subst (project (assume 1) c d) c e 7)",
        ]:
            assert parse_proof(format_proof([text], NAMES), IDS) == text

    def test_parse_whitespace_insensitive(self):
        text = "( project ( assume 0 )  a b )"
        assert parse_proof(text, IDS) == text
        assert check(text, 2, HYPS, ids=IDS) == {0, 1}

    @pytest.mark.parametrize(
        "text, column, message",
        [
            exact("(assume\tx)", 9, "expected a hypothesis index, got 'x'"),
            exact("(assume x)", 9, "expected a hypothesis index, got 'x'"),
            exact("(assume 1.5)", 9, "expected a hypothesis index, got '1.5'"),
            exact(
                "(trans (assume 0)\x1c(assume zz))",
                27,
                "expected a hypothesis index, got 'zz'",
            ),
            exact(
                "(subst (assume 0) a b c)", 23, "expected an equality index, got 'c'"
            ),
            exact("(assume (assume 0))", 18, "expected a hypothesis index"),
            exact(
                "(subst (assume 0) a b (assume 1))", 32, "expected an equality index"
            ),
            exact("(subrefl a (assume 0))", 21, "expected a term name"),
            exact("(project (assume 0) (assume 1))", 30, "expected a term name"),
            exact("(subrefl zz)", 10, "unknown term 'zz'"),
            exact("(trans a (assume 0))", 8, "expected a sub-proof"),
            exact("(project a b)", 10, "expected a sub-proof"),
            exact("(subst a b c 0)", 8, "expected a sub-proof"),
            exact("(assume)", 2, "assume takes one hypothesis index"),
            exact("(assume 0 1)", 2, "assume takes one hypothesis index"),
            exact("(subrefl)", 2, "subrefl needs at least one term"),
            exact("(trans (assume 0))", 2, "trans takes two sub-proofs"),
            # the arity comes first, before the kind of each part
            exact("(trans (assume 0) x (assume 1))", 2, "trans takes two sub-proofs"),
            exact("(assume (assume 0) 1)", 2, "assume takes one hypothesis index"),
            # parts between sub-proofs, in nodes with three or more
            exact(
                "(subrefl a (assume 0) b (assume 1) (assume 2))",
                21,
                "expected a term name",
            ),
            exact(
                "(subst (assume 0) zz (assume 1) (assume 2))", 19, "unknown term 'zz'"
            ),
            exact(
                "(project (assume 0) a (assume 1) zz (assume 2) c)",
                32,
                "expected a term name",
            ),
            exact("(subst (assume 0) a zz 0)", 21, "unknown term 'zz'"),
            pytest.param(
                "(assume " + "1" * 641 + ")",
                9,
                "expected a hypothesis index, got '" + "1" * 641 + "'",
                id="(assume <641 digits>)-9",
            ),
            exact(
                "(project (assume 0))",
                2,
                "project takes a sub-proof and at least one term",
            ),
            exact(
                "(subst (assume 0) a b)",
                2,
                "subst takes a sub-proof, two terms, and an equality index",
            ),
            exact("(frobnicate 1)", 2, "unknown proof constructor 'frobnicate'"),
            exact("(assume 0) (assume 1)", 21, "trailing input after proof"),
            # a second proof is read as one, and refused only at its ')'
            exact("(assume 0) (assume x)", 20, "expected a hypothesis index, got 'x'"),
            exact("(assume 0) ()", 12, "empty proof node"),
            exact("(assume 0) (foo", 13, "unclosed '('"),
            exact("(assume 0) (assume 1) x", 21, "trailing input after proof"),
            exact("(assume 0))", 11, "unbalanced ')'"),
            exact(")", 1, "unbalanced ')'"),
            # unbalanced ')' after a wide space
            exact("(assume 0)\u3000)", 12, "unbalanced ')'"),
            # a constructor must come first, not after a sub-proof
            exact(
                "((assume 0) trans (assume 1))", 2, "expected a proof constructor"
            ),
            exact(
                "( (assume 0) (assume 1) trans)", 3, "expected a proof constructor"
            ),
            # a node with no head is refused at its first sub-proof's '(',
            # before anything inside it, or at the end of the text
            exact("( (assume x))", 3, "expected a proof constructor"),
            exact(
                "(trans (assume 0) ((assume 1) zz))", 20, "expected a proof constructor"
            ),
            exact("( \t(", 4, "expected a proof constructor"),
            exact("(trans (assume 0) ( ", 19, "unclosed '('"),
            exact("()", 1, "empty proof node"),
            exact("( \t)", 1, "empty proof node"),
            exact("assume 0)", 1, "proof must start with '('"),
            exact(" x)", 2, "proof must start with '('"),
            exact(")x", 1, "unbalanced ')'"),
            exact("(assume 0) x", 12, "proof must start with '('"),
            # an unclosed node is located at its head once it has one
            exact("(assume 0", 2, "unclosed '('"),
            exact("(trans (assume 0)", 2, "unclosed '('"),
            exact("  (", 3, "unclosed '('"),
            # an empty proof is located one past the end of the text
            exact("", 1, "empty proof"),
            exact("  \t", 4, "empty proof"),
            exact("\u3000", 2, "empty proof"),
        ],
    )
    def test_error_columns_are_exact(self, text, column, message):
        with pytest.raises(ProofSyntaxError) as read:
            parse_proof(text, IDS)
        # `check` refuses the text exactly as `parse_proof` does
        with pytest.raises(ProofSyntaxError) as e:
            check(text, 1, [], ids=IDS)
        for error in (read.value, e.value):
            assert error.column == column
            assert str(error) == f"col {column}: {message}"

    def test_deep_proofs_survive_round_trip(self):
        # proofs from long merge chains nest far beyond the recursion limit
        from helpers import build_session

        n = 400
        hyps = [(i, i + 1, i + 2) for i in range(n)]
        s = build_session(2, n + 2, hyps)
        proof = s.resolve_query((0, n // 2, n + 1))
        text = format_proof(proof, s.term_names)
        ids = {name: i for i, name in enumerate(s.term_names)}
        assert parse_proof(text, ids) == text
        assert used_hypotheses(text) == set(range(n))
        assert check_text(proof, s) == {0, n // 2, n + 1}


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
            mutant, ids = mutate_proof(rng, proof, conclusion, session)
            mutated_count += 1
            try:
                got = check(
                    mutant,
                    session.k,
                    session.hypotheses,
                    session.class_of,
                    session.equalities,
                    ids=ids,
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


# pieces of well-formed proof text, so the fuzzer also reaches deep parses
PROOF_PIECES = st.sampled_from(
    ["(", ")", "(assume 0)", "(subrefl a b)", "(trans ", "(project ",
     "(subst ", "assume", "a", "g", "zz", "0", "7", "-1", "1" * 30,
     " ", "\t", "\x1c", "\u3000"]
)


@given(st.one_of(st.text(), st.lists(PROOF_PIECES, max_size=40).map("".join)))
@settings(max_examples=300, deadline=None)
def test_parse_proof_fuzz_raises_only_syntax_errors(text):
    try:
        proof = parse_proof(text, IDS)
    except ProofSyntaxError as e:
        # every error points at the first character of a token, except an
        # empty proof, which points one past the end of the text
        starts = {m.start() + 1 for m in re.finditer(r"[()]|[^\s()]+", text)}
        assert e.column in starts or (
            e.column == len(text) + 1 and str(e).endswith(": empty proof")
        )
        # `check` refuses the text with the same error, before any law
        with pytest.raises(ProofSyntaxError) as again:
            check(text, 1, HYPS, ids=IDS)
        assert (again.value.column, str(again.value)) == (e.column, str(e))
    else:
        # `parse_proof` gives the text back, and `check` reads it alike
        assert proof == text
        try:
            check(text, 1, HYPS, ids=IDS)
        except ProofCheckError:
            pass


# malformed proof texts, each with the column and message of its syntax
# error as the token shift-reduce reader that the one pass replaced gave
# them, pinned while both existed; made from the fuzzers here (joins of
# PROOF_PIECES, mutated and respaced engine proofs, random nodes), plus
# texts written for the messages they seldom reach
SYNTAX_ERRORS = pathlib.Path(__file__).with_name("syntax_errors.json")
# the names the texts use: the pieces' a..g and the engine's t0..t7
PINNED_IDS = {name: i for i, name in enumerate([*NAMES, *(f"t{i}" for i in range(8))])}


def test_pinned_syntax_errors():
    rows = json.loads(SYNTAX_ERRORS.read_text(encoding="ascii"))
    assert len(rows) >= 1000
    kinds = collections.Counter(re.sub(r"'.*'", "X", message) for _, _, message in rows)
    assert len(kinds) == 20 and min(kinds.values()) >= 10, kinds
    for text, column, message in rows:
        want = (column, f"col {column}: {message}")
        for run in (
            lambda: parse_proof(text, PINNED_IDS),
            lambda: check(text, 2, HYPS, ids=PINNED_IDS),
            lambda: check(text, 1, [], {}, [(0, 1)], ids=PINNED_IDS),
        ):
            with pytest.raises(ProofSyntaxError) as e:
                run()
            assert (e.value.column, str(e.value)) == want, text


def test_syntax_error_wins_over_an_earlier_fault():
    # a broken law, or a malformed log entry, is met first, and the pass
    # reads on: the syntax error after it on the line is raised
    for text, eqs in [
        ("(trans (subst (assume 9) a b 0) (assume zz))", [(0, 1)]),
        ("(trans (subst (assume 0) a b 0) (assume zz))", [(0, 1, 2)]),
    ]:
        with pytest.raises(ProofSyntaxError) as e:
            check(text, 2, HYPS, None, eqs, ids=IDS)
        assert str(e.value) == "col 41: expected a hypothesis index, got 'zz'"
    # with no syntax error, the first of the two is raised
    broken = "(trans (assume 9) (subst (assume 0) a b 0))"
    with pytest.raises(ProofCheckError, match="hypothesis index 9 out of range"):
        check(broken, 2, HYPS, None, [(0, 1, 2)], ids=IDS)
    malformed = "(trans (subst (assume 0) a b 0) (assume 9))"
    with pytest.raises(ValueError) as e:
        check(malformed, 2, HYPS, None, [(0, 1, 2)], ids=IDS)
    assert type(e.value) is ValueError
    assert str(e.value) == "malformed hypotheses, partition or equalities"


def test_malformed_log_entries_raise_value_error():
    # a log entry of the wrong type is as malformed as one of the wrong
    # shape: a hypothesis that is no term list, an equality that is no
    # pair, a partition class that cannot be counted
    for text, hyps, partition, eqs in [
        ("(assume 0)", [5], None, ()),
        ("(subst (assume 0) a b 0)", HYPS, None, [3]),
        ("(trans (assume 0) (assume 4))", HYPS, {t: [t] for t in range(7)}, ()),
    ]:
        with pytest.raises(ValueError) as e:
            check(text, 2, hyps, partition, eqs, ids=IDS)
        assert type(e.value) is ValueError
        assert str(e.value) == "malformed hypotheses, partition or equalities"
    # a syntax error later on the line still wins
    with pytest.raises(ProofSyntaxError, match="col 27: expected a hypothesis index, got 'zz'"):
        check("(trans (assume 0) (assume zz))", 2, [5], ids=IDS)


CONSTRUCTORS = ["assume", "subrefl", "trans", "project", "subst"]
# "" only ever lands next to a parenthesis, where it splits nothing
SPACES = [" ", "  ", "\t", "\x1c", "\u3000"]
TOKEN = re.compile(r"[()]|[^\s()]+")


def outcome(fn):
    """fn()'s conclusion, or the type and message of its proof error."""
    try:
        return fn()
    except (ProofSyntaxError, ProofCheckError) as e:
        return type(e), str(e)


def emitted_proofs(rng):
    """(context, ids, texts): the engine's proofs on a random congruence
    instance, with the (k, hypotheses, partition, equalities) they cite."""
    k = rng.choice([1, 2, 3])
    n_terms, class_of, statements = random_congruence_instance(rng, k)
    state = build_congruence(k, n_terms, class_of, statements)
    names = state.term_names
    texts = []
    for combo in itertools.combinations(range(n_terms), k + 1):
        proof = state.query_atom("r", combo)
        if proof is not None:
            texts.append(format_proof(proof, names))
    session = state.sessions["r"]
    context = (k, session.hypotheses, session.class_of, state.equalities)
    return context, {name: i for i, name in enumerate(names)}, texts


def mutate_text(rng, tokens, names, n_indices):
    """Tokens with up to two token-level edits, re-joined by random spaces.

    Indices and names mostly replace their own kind, so that many mutants
    parse and break a law instead of the syntax.
    """
    tokens = list(tokens)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(tokens))
        ints = [j for j, tok in enumerate(tokens) if tok.isdigit()] or [i]
        terms = [j for j, tok in enumerate(tokens) if tok in names] or [i]
        op = rng.randrange(8)
        if op == 0 and len(tokens) > 1:
            del tokens[i]
        elif op == 1:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(tokens))
        elif op == 2:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == 3:
            tokens[rng.choice(ints)] = str(rng.randint(-1, n_indices))
        elif op == 4:
            tokens[rng.choice(terms)] = rng.choice(names + ["zz"])
        elif op == 5:
            tokens.insert(rng.choice(terms), rng.choice(names))
        elif op == 6:
            tokens[i] = rng.choice(CONSTRUCTORS)
        else:
            tokens[i] = rng.choice("()")
    out = [rng.choice(SPACES + [""])]
    for a, b in zip(tokens, tokens[1:] + [")"]):
        out.append(a)
        near_paren = a in "()" or b in "()"
        out.append(rng.choice(SPACES + [""] * near_paren))
    return tokens, "".join(out)


def perturb(rng, partition, hyps):
    """The partition with one term t of a hypothesis dropped, given a class
    of its own, or given the class of another term of that hypothesis; the
    last can leave a `trans` step short of distinct anchors."""
    partition = dict(partition)
    t, u = rng.sample(rng.choice(hyps), 2)
    op = rng.randrange(3)
    if op == 0:
        del partition[t]
    elif op == 1:
        partition[t] = max(partition.values()) + 1
    else:
        partition[t] = partition[u]
    return partition


def test_check_reads_syntax_as_parse_proof_does():
    # on mutants of the engine's proofs, `check` raises the first syntax
    # error that `parse_proof` raises, or, where `parse_proof` accepts the
    # text, gives a conclusion or the error of a broken law
    seen = collections.Counter()

    @given(st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def differential(seed):
        rng = random.Random(seed)
        (k, hyps, partition, eqs), ids, texts = emitted_proofs(rng)
        names = sorted(ids)
        if not texts:
            return
        # the engine's own proofs pass, judged in the one pass
        with mock.patch.object(
            kequiv.proofs, "parse_proof", side_effect=AssertionError("second reader")
        ):
            for t in texts:
                assert isinstance(check(t, k, hyps, partition, eqs, ids=ids), frozenset)
        n_indices = max(len(hyps), len(eqs))
        # longer proofs have more nodes to break
        for text in rng.choices(texts, [len(t) for t in texts], k=8):
            original = TOKEN.findall(text)
            for _ in range(6):
                tokens, mutant = mutate_text(rng, original, names, n_indices)
                part = partition
                if hyps and rng.random() < 0.4:
                    part = perturb(rng, partition, hyps)
                got = outcome(lambda: check(mutant, k, hyps, part, eqs, ids=ids))
                read = outcome(lambda: parse_proof(mutant, ids))
                if read == mutant:
                    assert isinstance(got, frozenset) or got[0] is ProofCheckError
                else:
                    assert got == read, mutant
                if tokens != original:
                    kind = "pass" if isinstance(got, frozenset) else got[0].__name__
                    seen[kind] += 1

    differential()
    assert seen["pass"] and seen["ProofCheckError"] and seen["ProofSyntaxError"], seen


# separators that `str.split` and `parse_proof` both read as whitespace
SEPARATORS = [" ", "\t", "\x0c", "\x1c", "\u2028"]


def respace(rng, text):
    """`text` with each space widened to a random run of separators, and
    such runs put before some texts, just inside some '(' and just before
    some ')'."""

    def gap():
        return "".join(rng.choices(SEPARATORS, k=rng.randint(1, 3)))

    out = [gap() if rng.random() < 0.5 else ""]
    for ch in text:
        if ch == " ":
            out.append(gap())
        elif ch == "(":
            out.append("(" + (gap() if rng.random() < 0.5 else ""))
        elif ch == ")":
            out.append((gap() if rng.random() < 0.5 else "") + ")")
        else:
            out.append(ch)
    return "".join(out)


def judged(text, context, ids):
    """`check`'s conclusion for `text`, or its proof error's class, message
    and path."""
    try:
        return check(text, *context, ids=ids)
    except ProofCheckError as e:
        return type(e), e.message, e.path


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_whitespace_variants_judge_alike(seed):
    # the pass finds stretches by splitting the text at parentheses, so
    # any whitespace between and inside them must read as one space
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3])
    pool = []
    if rng.random() < 0.5:
        n_terms, hyps, class_of = random_instance(rng, k, partitioned=True)
        run_differential(k, n_terms, hyps, class_of, proof_sink=pool)
    else:
        n_terms, class_of, statements = random_congruence_instance(rng, k)
        run_congruence_differential(k, n_terms, class_of, statements, pool)
    for text, conclusion, session in rng.sample(pool, min(len(pool), 4)):
        ids = session.terms.term_ids
        hyps = session.hypotheses
        context = (session.k, hyps, session.class_of, session.equalities)
        # read by the pass itself, leading separators too, with no other reader
        with mock.patch.object(
            kequiv.proofs, "parse_proof", side_effect=AssertionError("second reader")
        ), mock.patch.object(
            kequiv.proofs, "format_proof", side_effect=AssertionError("second reader")
        ):
            assert check(respace(rng, text), *context, ids=ids) == conclusion
        for form in (tuple, list, frozenset):
            again = (session.k, list(map(form, hyps)), *context[2:])
            assert check(text, *again, ids=ids) == conclusion
        mutant, ids = mutate_proof(rng, text, conclusion, session)
        spaced = respace(rng, mutant)
        assert judged(spaced, context, ids) == judged(mutant, context, ids)
