import argparse
import ast
import gc
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kequiv
import kequiv.problem
import kequiv.proofs
from kequiv.cli import _build_state, cmd_check, cmd_solve, main
from kequiv.congruence import CongruenceState
from kequiv.engine import Session, TermTable, UnionFind
from kequiv.oracle import closure_sets, covered
from kequiv.problem import generate, intern_problem, parse_text
from kequiv.proofs import (
    ProofCheckError,
    ProofSyntaxError,
    check,
    format_proof,
)
from helpers import (
    blocks,
    chain_text,
    eq_chain_check_text,
    eq_chain_text,
    eq_first_text,
    many_lines_text,
    pencil_closed_text,
)

EXAMPLE = """\
rel coll 2
hyp coll a b c
hyp coll c d e
hyp coll e f g
hyp coll a d g
hyp coll b c d
query coll a b d
query coll a a b
query coll b c e
"""

CONGRUENCE = """\
rel coll 2
class c d
hyp coll a b c
eq c d
query coll a b d
"""

MULTI = """\
rel coll 2
rel cycl 3
class e x
hyp coll a b e
hyp cycl a b c e
eq e x
query coll a b x
query cycl a b c x
"""

# the last `eq` joins two trees of equalities and re-roots one of them, so
# the `p q 0` hop runs over a reversed edge
REROOTED = """\
rel coll 2
class p q r s t
hyp coll a b p
hyp coll b c t
eq p q
eq r s
eq t r
eq q s
query coll a b c q
query coll a c t
"""

# every `eq` comes before the hypotheses, so each hypothesis that names a
# retired representative is renamed as it is asserted, by one pair or by
# several; `hyp coll r s e` and `hyp coll q r c` collapse to two terms
EQ_FIRST = """\
rel coll 2
rel cycl 3
class p q r s
class a b
eq p q
eq r s
eq q s
eq a b
hyp coll s b c
hyp coll q c d
hyp coll p e f
hyp coll r s e
hyp coll d e f
hyp coll q r c
hyp cycl q b c d
hyp cycl r c d g
query coll s c d
query coll b c q
query coll r d e
query coll a c p
query coll q d f
query coll s b d
query coll r q c e
query cycl s a c d g
query cycl q b g
"""


@pytest.fixture
def example(tmp_path):
    path = tmp_path / "example.kq"
    path.write_text(EXAMPLE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eq_queries(n):
    """Extra queries for `eq_chain_text(n)` and `eq_first_text(n)`."""
    return "".join(
        f"query coll z x{i} x{(5 * i + 1) % n}\nquery coll q{i} x{i} z\n"
        f"query coll q{3 * i % n} x{i} x{(i + 7) % n}\n"
        for i in range(0, n, 6)
    )


class TestSolve:
    def test_golden_output(self, example, capsys):
        code, out, _ = run(capsys, "solve", example)
        assert code == 0
        assert out.splitlines() == [
            "entailed (project (trans (assume 0) (assume 4)) a b d)",
            "entailed (subrefl a b)",
            "entailed (project (trans (assume 1) (assume 4)) b c e)",
        ]

    def test_not_entailed_line(self, tmp_path, capsys):
        path = tmp_path / "p.kq"
        path.write_text("rel coll 2\nhyp coll a b c\nquery coll a b d\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert out == "not-entailed\n"

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.kq"
        path.write_text("hyp coll a b c\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "unknown relation" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent.kq")
        assert code == 1

    def test_non_utf8_problem_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.kq"
        path.write_bytes(b"rel coll 2\nhyp coll a b \xff\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "utf-8" in err

    def test_byte_order_mark_is_ignored(self, example, tmp_path, capsys):
        path = tmp_path / "bom.kq"
        path.write_bytes(b"\xef\xbb\xbf" + Path(example).read_bytes())
        assert run(capsys, "solve", str(path)) == run(capsys, "solve", example)

    def test_congruence_file(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text(CONGRUENCE)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert out.startswith("entailed ")

    def test_rerooted_equality_path_golden(self, tmp_path, capsys):
        path = tmp_path / "r.kq"
        path.write_text(REROOTED)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        chain = (
            "(trans (subst (assume 1) t r 2) "
            "(subst (subst (subst (assume 0) p q 0) q s 3) s r 1))"
        )
        assert out.splitlines() == [
            f"entailed (project {chain} r a b c)",
            f"entailed (project {chain} r a c)",
        ]
        proofs = tmp_path / "proofs.txt"
        proofs.write_text(out)
        code, out, _ = run(capsys, "check", str(path), str(proofs))
        assert code == 0
        assert out.splitlines() == ["pass", "pass"]

    def test_eq_first_golden(self, tmp_path, capsys):
        path = tmp_path / "eq-first.kq"
        path.write_text(EQ_FIRST)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        # hypotheses 0 and 1 renamed at assert time, by three and one steps
        h0 = "(subst (subst (subst (assume 0) s q 2) q p 0) b a 3)"
        h1 = "(subst (assume 1) q p 0)"
        line = "(project (trans (assume 2) (assume 4)) p d e)"
        assert out.splitlines() == [
            f"entailed {h1}",
            f"entailed {h0}",
            f"entailed {line}",
            f"entailed {h0}",
            "entailed (project (trans (assume 2) (assume 4)) p d f)",
            f"entailed (project (trans {h0} {h1}) p a d)",
            f"entailed (project (trans {h1} {line}) p c e)",
            "entailed (project (trans (subst (subst (assume 0) q p 0) b a 3) "
            "(subst (subst (subst (assume 1) r s 1) s q 2) q p 0)) p a c d g)",
            "entailed (subrefl p a g)",
        ]
        proofs = tmp_path / "proofs.txt"
        proofs.write_text(out)
        assert run(capsys, "check", str(path), str(proofs)) == (0, "pass\n" * 9, "")

    def test_inconsistent_equality_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text("rel coll 2\nhyp coll a b c\neq a b\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "distinct" in err

    def test_state_adopts_the_problem_term_table(self, tmp_path, capsys):
        # one table: the state's names and ids are the problem's own, and
        # its classes are those `kequiv check` groups for the same file
        problem = parse_text(EQ_FIRST)
        state = _build_state(problem)
        assert state.terms.term_ids is problem.term_ids
        assert state.terms.term_names is problem.term_order
        assert blocks(state.terms.class_of) == blocks(intern_problem(problem).class_of)
        # an `eq` across two classes is still refused, by both commands
        path = tmp_path / "c.kq"
        path.write_text("rel coll 2\nclass a b\nclass c d\nhyp coll a c e\neq b d\n")
        proofs = tmp_path / "proofs.txt"
        proofs.write_text("")
        err = "error: terms 'b' and 'd' are known distinct\n"
        assert run(capsys, "solve", str(path)) == (2, "", err)
        assert run(capsys, "check", str(path), str(proofs)) == (2, "", err)

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["solve"])
        assert e.value.code == 1

    def test_output_bytes_deterministic(self, example, capsys):
        _, first, _ = run(capsys, "solve", example)
        _, second, _ = run(capsys, "solve", example)
        assert first == second

    def test_engines_agree_on_generated_instances(self, tmp_path, capsys):
        # generated queries have k+1 terms and files have no `eq` lines, so
        # the oracle's derived sets decide each query on their own
        agreed = 0
        for i in range(200):
            k = (i % 3) + 1
            rate = 0.4 if i % 3 == 0 else 0.0
            text = generate(k, 3 * (k + 1), 2, seed=1000 + i, partition_rate=rate)
            path = tmp_path / f"g{i}.kq"
            path.write_text(text)
            code, out, _ = run(capsys, "solve", str(path))
            assert code == 0
            interned = intern_problem(parse_text(text))
            families = {
                rel: closure_sets(
                    arity,
                    [xs for r, xs in interned.atoms if r == rel],
                    interned.class_of,
                )
                for rel, arity in interned.relations.items()
            }
            expected = [
                "entailed"
                if covered(interned.relations[rel], xs, families[rel])
                else "not-entailed"
                for rel, xs in interned.queries
            ]
            verdicts = [l.split()[0] for l in out.splitlines()]
            assert verdicts == expected, f"instance {i} disagrees"
            agreed += 1
        assert agreed == 200

    def test_multiple_relations_share_equalities(self, tmp_path, capsys):
        path = tmp_path / "multi.kq"
        path.write_text(MULTI)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert [l.split()[0] for l in out.splitlines()] == ["entailed"] * 2

    def test_solve_builds_no_proof_nodes(self, tmp_path, capsys, monkeypatch):
        # a query answered by one hypothesis, bare and through renames, and
        # queries of at most k terms; a query that reaches the proof walk
        # has more than k terms, so one hypothesis concludes exactly it and
        # never needs a `project`
        one_hypothesis = (
            "rel coll 2\nclass a x\nclass b y\neq x a\neq y b\n"
            "hyp coll a b c\nhyp coll c d e\n"
            "query coll x y c\nquery coll c d e\n"
        )
        subrefl = "rel coll 2\nhyp coll a b c\nquery coll a b\nquery coll c c\n"
        files = {
            "example": EXAMPLE,
            "chain": chain_text(300),
            "eq-chain": eq_chain_text(60),
            "one-hypothesis": one_hypothesis,
            "subrefl": subrefl,
        }
        expected = {}
        for name, text in files.items():
            path = tmp_path / f"{name}.kq"
            path.write_text(text)
            expected[name] = run(capsys, "solve", str(path))
        assert expected["one-hypothesis"][1].splitlines() == [
            "entailed (subst (subst (assume 0) a x 0) b y 1)",
            "entailed (assume 1)",
        ]
        assert expected["subrefl"][1].splitlines() == [
            "entailed (subrefl a b)",
            "entailed (subrefl c)",
        ]
        assert "(subst (subst " in expected["eq-chain"][1]

        # solve writes the text the engine's pieces join to: it never reads
        # a proof back or judges one
        def proof_read(*args, **kwargs):
            raise AssertionError("solve read or judged a proof")

        monkeypatch.setattr(kequiv.proofs, "parse_proof", proof_read)
        monkeypatch.setattr(kequiv.proofs, "check", proof_read)
        monkeypatch.setattr(kequiv.proofs, "checker", proof_read)
        monkeypatch.setattr(kequiv.cli, "checker", proof_read)
        for name in files:
            assert run(capsys, "solve", str(tmp_path / f"{name}.kq")) == expected[name]

    def test_solve_prints_what_query_atom_returns(self, tmp_path, capsys, monkeypatch):
        # solve asks `CongruenceState.query_atom` once per query, in file
        # order, and prints the text `format_proof` joins from its pieces
        real = CongruenceState.query_atom
        calls = []

        def spy(state, relation, xs):
            xs = list(xs)
            result = real(state, relation, xs)
            calls.append((state, relation, xs, result))
            return result

        monkeypatch.setattr(CongruenceState, "query_atom", spy)
        files = [EXAMPLE, MULTI, EQ_FIRST, eq_chain_text(40) + eq_queries(40)]
        for i, text in enumerate(files):
            path = tmp_path / f"p{i}.kq"
            path.write_text(text)
            calls.clear()
            code, out, _ = run(capsys, "solve", str(path))
            assert code == 0
            queries = parse_text(text).queries
            lines = out.splitlines()
            assert len(calls) == len(queries) == len(lines)
            for (state, relation, xs, result), q, line in zip(calls, queries, lines):
                assert (relation, xs) == (q.relation, list(map(state.term_id, q.terms)))
                if result is None:
                    assert line == "not-entailed"
                else:
                    assert line == "entailed " + format_proof(result, state.term_names)
        assert any(result is None for *_, result in calls)

    @pytest.mark.parametrize(
        "text, digest",
        [
            (
                chain_text(400)
                + "".join(
                    f"query coll p{i} p{(7 * i + 3) % 402} p{(13 * i + 5) % 402}\n"
                    for i in range(0, 400, 8)
                ),
                "c679eda5ddc4c62ef6f5296f61746d7a231440ca772d321ccc9dbcf4c825568e",
            ),
            (
                pencil_closed_text(200)
                + "".join(
                    f"query coll h b{j} c{j}\nquery coll a{j} c{j} h\n"
                    f"query coll a{j} b{j} c{j}\nquery coll h c{j} c{(j + 1) % 200}\n"
                    for j in range(0, 200, 7)
                ),
                "596ddf21afef0c9ae0fa652509706f78cfe260f1f8f8ae9697dafbfb1f3532c4",
            ),
            (
                eq_chain_text(150) + eq_queries(150),
                "06c720fad373dd1ac2c5fda948b5772b0050b00bb3518441543585d861ab1cff",
            ),
            (
                eq_first_text(120) + eq_queries(120),
                "bc2a1dc5ec7fda271285891b41e8a15cb57922b78933a510b3109bc24af1bce2",
            ),
            (
                many_lines_text(40),
                "633a550fc59582f8a2f54ac0d2e1265fff77491fccb4fbfd8d2bf3f3afe2b517",
            ),
        ],
        ids=["chain", "pencil-closed", "eq-chain", "eq-first", "many-lines"],
    )
    def test_solve_stdout_is_pinned(self, tmp_path, capsys, text, digest):
        # any change to the proof path that moves one byte of solve's output
        # fails here; the digests were taken before the walk wrote text
        # itself, and the many-lines one before a merge record could store
        # one moved term in place of its absorbed side.  Repeated solves in
        # one process print the same bytes, and every proof checks.
        path = tmp_path / "p.kq"
        path.write_text(text)
        runs = [run(capsys, "solve", str(path)) for _ in range(3)]
        code, out, _ = runs[0]
        assert code == 0
        assert runs[1:] == runs[:1] * 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        proofs = tmp_path / "proofs.txt"
        proofs.write_text(out)
        assert run(capsys, "check", str(path), str(proofs)) == (
            0,
            "pass\n" * len(out.splitlines()),
            "",
        )


class TestCheck:
    def solve_to_file(self, capsys, tmp_path, problem_path):
        code, out, _ = run(capsys, "solve", problem_path)
        assert code == 0
        proofs = tmp_path / "proofs.txt"
        proofs.write_text(out)
        return str(proofs)

    def test_round_trip(self, example, tmp_path, capsys):
        proofs = self.solve_to_file(capsys, tmp_path, example)
        code, out, _ = run(capsys, "check", example, proofs)
        assert code == 0
        assert out.splitlines() == ["pass"] * 3

    def test_corrupted_index_fails(self, example, tmp_path, capsys):
        proofs = tmp_path / "proofs.txt"
        proofs.write_text(
            "entailed (project (trans (assume 1) (assume 4)) a b d)\n"
            "entailed (subrefl a b)\n"
            "entailed (project (trans (assume 1) (project (trans (assume 0) "
            "(assume 4)) a b c d)) b c e)\n"
        )
        code, out, _ = run(capsys, "check", example, str(proofs))
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("fail")
        assert lines[1] == "pass"

    def test_wrong_conclusion_fails(self, example, tmp_path, capsys):
        proofs = tmp_path / "proofs.txt"
        proofs.write_text(
            "entailed (assume 0)\n"
            "entailed (subrefl a b)\n"
            "entailed (subrefl a b)\n"
        )
        code, out, _ = run(capsys, "check", example, str(proofs))
        assert code == 3
        assert out.splitlines()[0].startswith("fail")
        assert "match" in out.splitlines()[2]

    def test_line_count_mismatch(self, example, tmp_path, capsys):
        proofs = tmp_path / "proofs.txt"
        proofs.write_text("entailed (assume 0)\n")
        code, _, err = run(capsys, "check", example, str(proofs))
        assert code == 1

    def test_only_line_breaks_split_proof_lines(self, tmp_path, capsys):
        # README's example, its proof written with a file separator (\x1c),
        # which str.split takes for whitespace, after `(assume 0)`
        problem, proofs = tmp_path / "ex2.kq", tmp_path / "ex2.proofs"
        problem.write_text(EXAMPLE.split("query")[0] + "query coll a b d\n")
        proofs.write_text(
            "entailed (project (trans (assume 0)\x1c(assume 4)) a b d)\r\n"
        )
        assert run(capsys, "check", str(problem), str(proofs)) == (0, "pass\n", "")

    def test_non_utf8_proofs_exit_one(self, example, tmp_path, capsys):
        proofs = tmp_path / "proofs.txt"
        proofs.write_bytes(b"entailed (assume \xff)\nnot-entailed\nnot-entailed\n")
        code, out, err = run(capsys, "check", example, str(proofs))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "utf-8" in err

    @pytest.mark.parametrize("bom_in", ["problem", "proofs"])
    def test_byte_order_mark_is_ignored(self, example, tmp_path, capsys, bom_in):
        proofs = self.solve_to_file(capsys, tmp_path, example)
        files = {"problem": example, "proofs": proofs}
        plain = run(capsys, "check", *files.values())
        path = tmp_path / f"bom-{bom_in}"
        path.write_bytes(b"\xef\xbb\xbf" + Path(files[bom_in]).read_bytes())
        files[bom_in] = str(path)
        assert run(capsys, "check", *files.values()) == plain
        assert plain == (0, "pass\n" * 3, "")

    def test_not_entailed_lines_pass(self, tmp_path, capsys):
        path = tmp_path / "p.kq"
        path.write_text("rel coll 2\nhyp coll a b c\nquery coll a b d\n")
        proofs = self.solve_to_file(capsys, tmp_path, str(path))
        code, out, _ = run(capsys, "check", str(path), proofs)
        assert code == 0
        assert out == "pass\n"

    def test_congruence_round_trip(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text(CONGRUENCE)
        proofs = self.solve_to_file(capsys, tmp_path, str(path))
        code, out, _ = run(capsys, "check", str(path), proofs)
        assert code == 0
        assert out == "pass\n"

    def test_multiple_relations_round_trip(self, tmp_path, capsys):
        path = tmp_path / "multi.kq"
        path.write_text(MULTI)
        proofs = self.solve_to_file(capsys, tmp_path, str(path))
        code, out, _ = run(capsys, "check", str(path), proofs)
        assert code == 0
        assert out.splitlines() == ["pass"] * 2

    def test_check_runs_no_closure_engine(self, example, tmp_path, capsys, monkeypatch):
        proofs = self.solve_to_file(capsys, tmp_path, example)

        def engine_called(*args, **kwargs):
            raise AssertionError("check ran the closure engine")

        monkeypatch.setattr(Session, "assert_hypothesis", engine_called)
        monkeypatch.setattr(Session, "rename_term", engine_called)
        monkeypatch.setattr(CongruenceState, "assert_atom", engine_called)
        code, out, _ = run(capsys, "check", example, proofs)
        assert code == 0
        assert out.splitlines() == ["pass"] * 3

    def test_a_query_matches_modulo_equality(self, tmp_path, capsys):
        # a conclusion may name any member of a query term's equality class
        path = tmp_path / "m.kq"
        path.write_text(
            "rel coll 2\nclass a b\neq a b\nhyp coll a c d\nquery coll b c d\n"
        )
        proofs = tmp_path / "proofs.txt"
        for proof in ("(subst (assume 0) a b 0)", "(assume 0)"):
            proofs.write_text(f"entailed {proof}\n")
            assert run(capsys, "check", str(path), str(proofs)) == (0, "pass\n", "")
        proofs.write_text("entailed (subrefl c d)\n")
        assert run(capsys, "check", str(path), str(proofs)) == (
            3,
            "fail: line 1: conclusion does not match the query\n",
            "",
        )

    def test_a_broken_engine_partition_cannot_pass_its_proofs(
        self, tmp_path, capsys, monkeypatch
    ):
        # with its partition ungrouped, the engine joins two hypotheses
        # through a and b, which the `class` line makes possibly equal
        path = tmp_path / "p.kq"
        path.write_text(
            "rel coll 2\nclass a b\nhyp coll a b c\nhyp coll a b d\n"
            "query coll a b c d\n"
        )
        monkeypatch.setattr(TermTable, "mark_possibly_equal", lambda self, terms: None)
        proofs = self.solve_to_file(capsys, tmp_path, str(path))
        wrong = "entailed (project (trans (assume 0) (assume 1)) a b c d)\n"
        assert Path(proofs).read_text() == wrong
        fail = "at root.0: shared terms span 1 distinctness classes, need 2"
        assert run(capsys, "check", str(path), proofs) == (
            3,
            f"fail: line 1: {fail}\n",
            "",
        )

    def test_proofs_under_another_tie_rule_pass(self, tmp_path, capsys, monkeypatch):
        # on a tie the engine's union-find keeps a's root; with the operands
        # swapped it keeps b's, and the proofs name other representatives
        path = tmp_path / "eq.kq"
        path.write_text(eq_chain_check_text(12))
        default = Path(self.solve_to_file(capsys, tmp_path, str(path))).read_text()
        with monkeypatch.context() as m:
            union = UnionFind.union
            m.setattr(UnionFind, "union", lambda self, a, b: union(self, b, a))
            proofs = self.solve_to_file(capsys, tmp_path, str(path))
        assert Path(proofs).read_text() != default
        assert run(capsys, "check", str(path), proofs) == (0, "pass\n" * 4, "")

    def test_inconsistent_equality_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text("rel coll 2\nhyp coll a b c\neq a b\nquery coll a b c\n")
        proofs = tmp_path / "proofs.txt"
        proofs.write_text("entailed (assume 0)\n")
        code, out, err = run(capsys, "check", str(path), str(proofs))
        assert code == 2
        assert out == ""
        assert err == "error: terms 'a' and 'b' are known distinct\n"
        assert run(capsys, "solve", str(path))[1:] == ("", err)

    def test_passing_lines_build_no_proof_tree(
        self, example, tmp_path, capsys, monkeypatch
    ):
        # `check` judges each line in one pass; `parse_proof`, the
        # syntax-only reading of the same scan, is never run beside it
        proofs = self.solve_to_file(capsys, tmp_path, example)

        def second_read(*args, **kwargs):
            raise AssertionError("check read a passing line twice")

        monkeypatch.setattr(kequiv.proofs, "parse_proof", second_read)
        assert run(capsys, "check", example, proofs) == (0, "pass\n" * 3, "")

    def test_failing_lines_build_no_proof_tree(self, tmp_path, capsys, monkeypatch):
        problem = tmp_path / "example.kq"
        problem.write_text(EXAMPLE + "query coll a b d\n")
        proofs = Path(self.solve_to_file(capsys, tmp_path, str(problem)))
        first, second, third, fourth = proofs.read_text().splitlines()
        # two broken laws, the second followed by a syntax error, which
        # wins, and a syntax error alone
        proofs.write_text(
            re.sub(r"\(assume \d+\)", "(assume 99999)", first, count=1)
            + "\n"
            + second
            + "\n"
            + third.replace("(trans ", "(trans (assume 99999) ", 1)
            + "\n"
            + fourth.replace(" a ", " zz ", 1)
            + "\n"
        )
        expected = run(capsys, "check", str(problem), str(proofs))
        assert expected[0] == 3
        lines = expected[1].splitlines()
        assert lines[0] == (
            "fail: line 1: at root.0.0: hypothesis index 99999 out of range"
        )
        assert lines[1] == "pass"
        assert lines[2].startswith("fail: line 3: col ")
        assert re.fullmatch(r"fail: line 4: col \d+: unknown term 'zz'", lines[3])

        # a failing line, too, is judged in one pass: no second reading
        # for syntax and no proof written back out
        def second_read(*args, **kwargs):
            raise AssertionError("check read or wrote a failing line again")

        monkeypatch.setattr(kequiv.proofs, "parse_proof", second_read)
        monkeypatch.setattr(kequiv.proofs, "format_proof", second_read)
        assert run(capsys, "check", str(problem), str(proofs)) == expected

    def test_entailed_must_be_followed_by_whitespace(self, example, tmp_path, capsys):
        proofs = Path(self.solve_to_file(capsys, tmp_path, example))
        first, second, third = proofs.read_text().splitlines()
        proofs.write_text(
            first.replace("entailed ", "entailed", 1)
            + "\n"
            + second.replace("entailed", "entailedX", 1)
            + "\n"
            + third.replace("entailed ", "entailed\u3000\t", 1)
            + "\n"
        )
        code, out, _ = run(capsys, "check", example, str(proofs))
        assert (code, out.splitlines()) == (
            3,
            [
                "fail: line 1: expected 'entailed' or 'not-entailed'",
                "fail: line 2: expected 'entailed' or 'not-entailed'",
                "pass",
            ],
        )

    def test_constructor_after_a_sub_proof_fails(self, tmp_path, capsys):
        path = tmp_path / "p.kq"
        path.write_text(
            "rel coll 2\nhyp coll a b c\nhyp coll b c d\nquery coll a b c d\n"
        )
        proofs = tmp_path / "proofs.txt"
        proofs.write_text("entailed ((assume 0) trans (assume 1))\n")
        assert run(capsys, "check", str(path), str(proofs)) == (
            3,
            "fail: line 1: col 2: expected a proof constructor\n",
            "",
        )

    def test_ten_thousand_step_chain(self, tmp_path, capsys):
        n = 10_000
        path = tmp_path / "chain.kq"
        path.write_text(
            "rel coll 2\n"
            + "".join(f"hyp coll p{i} p{i + 1} p{i + 2}\n" for i in range(n))
            + f"query coll p0 p{n // 2} p{n + 1}\n"
        )
        proofs = Path(self.solve_to_file(capsys, tmp_path, str(path)))
        assert run(capsys, "check", str(path), str(proofs)) == (0, "pass\n", "")
        # send the first assume at depth 5,000 out of range
        text = proofs.read_text()[len("entailed ") :].rstrip("\n")
        depth = 0
        for i, ch in enumerate(text):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if depth >= 5000 and text.startswith("(assume ", i):
                break
        end = text.index(")", i) + 1
        text = f"{text[:i]}(assume {n}){text[end:]}"
        proofs.write_text(f"entailed {text}\n")
        interned = intern_problem(parse_text(path.read_text()))
        with pytest.raises(ProofCheckError) as e:
            check(
                text,
                2,
                [xs for _, xs in interned.atoms],
                interned.class_of,
                ids=interned.term_ids,
            )
        assert str(e.value).startswith("at root.0.0")
        assert len(e.value.path) >= 4999
        expected = f"fail: line 1: {e.value}\n"
        assert run(capsys, "check", str(path), str(proofs)) == (3, expected, "")

    def test_deep_failure_prints_a_bounded_line(self, tmp_path, capsys):
        # a 20,000-deep `project` nest around an out-of-range `assume`
        n = 20_000
        path = tmp_path / "deep.kq"
        path.write_text("rel coll 2\nhyp coll a b c\nquery coll a b\n")
        text = "(project " * n + "(assume 1)" + " a b)" * n
        proofs = tmp_path / "deep.proofs"
        proofs.write_text(f"entailed {text}\n")
        with pytest.raises(ProofCheckError) as e:
            check(text, 2, [(0, 1, 2)], ids={"a": 0, "b": 1, "c": 2})
        assert e.value.path == (0,) * n
        message = "hypothesis index 1 out of range"
        assert e.value.message == message
        where = "root" + ".0" * 8 + " ... " + ".0" * 8 + f" (depth {n})"
        assert str(e.value) == f"at {where}: {message}"
        code, out, err = run(capsys, "check", str(path), str(proofs))
        assert (code, out, err) == (3, f"fail: line 1: {e.value}\n", "")
        assert len(out.encode()) < 300

    def test_deep_syntax_error_prints_a_bounded_line(self, tmp_path, capsys):
        # a 200,000-deep `project` nest around a leaf with an unknown name
        n = 200_000
        path = tmp_path / "deep.kq"
        path.write_text("rel coll 2\nhyp coll a b c\nquery coll a b\n")
        text = "(project " * n + "(subrefl zz)" + " a)" * n
        proofs = tmp_path / "deep.proofs"
        proofs.write_text(f"entailed {text}\n")
        column = len("(project ") * n + len("(subrefl ") + 1
        with pytest.raises(ProofSyntaxError) as e:
            check(text, 2, [(0, 1, 2)], ids={"a": 0, "b": 1, "c": 2})
        assert str(e.value) == f"col {column}: unknown term 'zz'"
        code, out, err = run(capsys, "check", str(path), str(proofs))
        assert (code, out, err) == (3, f"fail: line 1: {e.value}\n", "")
        assert len(out.encode()) < 300

    def test_deep_chain_round_trip(self, tmp_path, capsys):
        n = 300
        lines = ["rel coll 2"]
        for i in range(n):
            lines.append(f"hyp coll p{i} p{i + 1} p{i + 2}")
        lines.append(f"query coll p0 p{n // 2} p{n + 1}")
        path = tmp_path / "chain.kq"
        path.write_text("\n".join(lines) + "\n")
        proofs = self.solve_to_file(capsys, tmp_path, str(path))
        code, out, _ = run(capsys, "check", str(path), proofs)
        assert code == 0
        assert out == "pass\n"


class TestGen:
    def test_deterministic_bytes(self, capsys):
        args = ["gen", "--k", "2", "--terms", "9", "--lines", "2", "--seed", "11"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_infeasible_exit_two(self, capsys):
        code, _, err = run(
            capsys, "gen", "--k", "2", "--terms", "4", "--lines", "2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "k,lines,reason",
        [
            ("0", "1", "need k >= 1, got k=0"),
            ("2", "-1", "need lines >= 1, got lines=-1"),
            ("2", "2", "need terms >= lines*(k+1), got k=2 terms=5 lines=2"),
        ],
    )
    def test_infeasible_reason_is_the_failing_bound(self, capsys, k, lines, reason):
        code, out, err = run(
            capsys, "gen", "--k", k, "--terms", "5", "--lines", lines
        )
        assert (code, out) == (2, "")
        assert err == f"error: infeasible parameters: {reason}\n"

    # refused before any name is built: 3e8 and 1e8 term names in the file
    @pytest.mark.parametrize(
        "k,terms", [("1", "100000000"), ("10000", "20002")]
    )
    @pytest.mark.parametrize("command", ["gen"])
    def test_oversized_file_exit_two(self, capsys, command, k, terms):
        code, out, err = run(
            capsys, command, "--k", k, "--terms", terms, "--lines", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "term names" in err


# the example of README.md
SEVEN_POINTS = """\
rel coll 2
hyp coll a b c
hyp coll c d e
hyp coll e f g
hyp coll a d g
hyp coll b c d
query coll a b d
"""


def engine_names(tree):
    """The names a module binds by importing kequiv.engine or
    kequiv.congruence, or anything from them, in any form."""
    engine = {"kequiv.engine", "kequiv.congruence"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {
                a.asname or a.name.split(".")[0] for a in node.names if a.name in engine
            }
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from within the package
            parts = ["kequiv"] * (node.level > 0) + [node.module or ""]
            module = ".".join(parts).strip(".")
            names |= {
                a.asname or a.name
                for a in node.names
                if module in engine or f"{module}.{a.name}" in engine
            }
    return names


def test_the_check_path_runs_no_engine_code():
    # read statically, since importing any module runs the package's
    # `__init__`, which imports everything
    src = Path(kequiv.__file__).resolve().parent
    for module in ("problem.py", "proofs.py"):
        assert engine_names(ast.parse((src / module).read_text())) == set(), module
    cli = ast.parse((src / "cli.py").read_text())
    imported = engine_names(cli)
    assert {"CongruenceState", "TermTable"} <= imported
    (body,) = [
        node
        for node in cli.body
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_check"
    ]
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert named and not named & imported
    # and the reading sees each form of import
    for text in (
        "from . import engine",
        "import kequiv.congruence as c",
        "from kequiv.engine import X",
    ):
        assert engine_names(ast.parse(text)) == {text.split()[-1]}


def test_commands_build_no_named_statements(tmp_path, capsys, monkeypatch):
    # solve and check read the problem's term ids only
    expected = {}
    for name, text in (("readme", SEVEN_POINTS), ("eq-first", EQ_FIRST)):
        problem, proofs = tmp_path / f"{name}.kq", tmp_path / f"{name}.proofs"
        problem.write_text(text)
        solved = run(capsys, "solve", str(problem))
        proofs.write_text(solved[1])
        expected[name] = (problem, proofs, solved)

    def named(*args, **kwargs):
        raise AssertionError("a command built a named statement")

    for cls in ("Atom", "Equality", "Query"):
        monkeypatch.setattr(kequiv.problem, cls, named)
    for problem, proofs, solved in expected.values():
        assert solved[0] == 0
        assert run(capsys, "solve", str(problem)) == solved
        checked = run(capsys, "check", str(problem), str(proofs))
        assert checked == (0, "pass\n" * len(solved[1].splitlines()), "")


HUGE = "9" * 5000
# an index in range, that `int` reads only under a limit of 700 digits or more
ZEROS = "0" * 700


# a numeral of 5000 digits wherever a command reads an integer, and one of
# 700 zeros where it is an index: the file, the proofs (None for none), the
# command after the file names, and its exit code and last line of output,
# that of a token which is no numeral
@pytest.mark.parametrize(
    "problem,proofs,argv,code,last",
    [
        pytest.param(
            f"rel r {HUGE}\nquery r a b\n",
            None,
            ["solve"],
            1,
            f"error: line 1, col 7: k must be a positive integer, got '{HUGE}'",
            id="arity",
        ),
        pytest.param(
            "rel r 1\nhyp r a b\nquery r a b\n",
            f"entailed (assume {HUGE})\n",
            ["check"],
            3,
            f"fail: line 1: col 9: expected a hypothesis index, got '{HUGE}'",
            id="hypothesis-index",
        ),
        pytest.param(
            "rel r 1\nclass a b\nhyp r a c\neq a b\nquery r b c\n",
            f"entailed (subst (assume 0) a b {HUGE})\n",
            ["check"],
            3,
            f"fail: line 1: col 23: expected an equality index, got '{HUGE}'",
            id="equality-index",
        ),
        pytest.param(
            "rel r 1\nhyp r a b\nquery r a b\n",
            f"entailed (assume {ZEROS})\n",
            ["check"],
            3,
            f"fail: line 1: col 9: expected a hypothesis index, got '{ZEROS}'",
            id="hypothesis-index-zeros",
        ),
        pytest.param(
            "rel r 1\nclass a b\nhyp r a c\neq a b\nquery r b c\n",
            f"entailed (subst (assume 0) a b {ZEROS})\n",
            ["check"],
            3,
            f"fail: line 1: col 23: expected an equality index, got '{ZEROS}'",
            id="equality-index-zeros",
        ),
        pytest.param(
            None,
            None,
            ["gen", "--k", HUGE, "--terms", "5", "--lines", "1"],
            1,
            f"kequiv gen: error: argument --k: invalid int value: '{HUGE}'",
            id="gen-k",
        ),
        pytest.param(
            None,
            None,
            ["gen", "--k", "1", "--terms", "5", "--lines", "1", "--seed", HUGE],
            1,
            f"kequiv gen: error: argument --seed: invalid int value: '{HUGE}'",
            id="gen-seed",
        ),
    ],
)
def test_numerals_read_alike_under_any_digit_limit(
    tmp_path, problem, proofs, argv, code, last
):
    files = []
    for name, text in (("p.kq", problem), ("p.proofs", proofs)):
        if text is not None:
            (tmp_path / name).write_text(text)
            files.append(str(tmp_path / name))
    src = os.path.dirname(os.path.dirname(kequiv.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = src
    endings = []
    for limit in (None, "0", "640"):
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        done = subprocess.run(
            [sys.executable, "-m", "kequiv.cli", argv[0], *files, *argv[1:]],
            env=env,
            capture_output=True,
            timeout=60,
        )
        endings.append((done.returncode, done.stdout, done.stderr))
    assert endings[1] == endings[0] and endings[2] == endings[0]
    returncode, out, err = endings[0]
    assert returncode == code
    assert (out or err).decode().splitlines()[-1] == last
    assert not (out and err)


def test_readme_library_block_prints_its_proof(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    exec(block, {})
    # the block shows each line it prints as a comment after the print
    shown = [line[2:] for line in block.splitlines() if line.startswith("# (")]
    assert shown and capsys.readouterr().out.splitlines() == shown


def test_readme_cli_block_lists_the_parser_subcommands(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.strip()]
    documented = [line.split()[1] for line in lines]
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    (choices,) = re.findall(r"\{([^}]*)\}", capsys.readouterr().out.splitlines()[0])
    assert documented == choices.split(",")
    # the usage text may wrap, and it ends at the first blank line
    option = re.compile(r"--[\w-]+")
    for command, line in zip(documented, lines):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert option.findall(line) == option.findall(usage), command


@pytest.mark.parametrize("command", ["solve", "check"])
def test_closed_stdout_exits_one_without_traceback(tmp_path, command):
    # 20,000 answer lines overflow the pipe buffer, so the command is still
    # writing when the reader goes away
    problem, proofs = tmp_path / "p.kq", tmp_path / "p.proofs"
    problem.write_text("rel r 2\n" + "query r a b\n" * 20_000)
    proofs.write_text("entailed (subrefl a b)\n" * 20_000)
    files = [problem] if command == "solve" else [problem, proofs]
    src = os.path.dirname(os.path.dirname(kequiv.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "kequiv.cli", command, *map(str, files)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err


# Problem text, proofs text (None: what `solve` prints) and the exit codes
# of solve and check, for every way a command can end
COMMAND_ENDINGS = {
    "chain": (chain_text(300), None, 0, 0),
    "pencil": (pencil_closed_text(300), None, 0, 0),
    "eq-chain": (eq_chain_text(300), None, 0, 0),
    "relations-and-classes": (MULTI, None, 0, 0),
    "parse-error": ("rel coll 2\nhyp coll a b\n", "", 1, 1),
    "not-utf-8": (b"rel coll 2\nhyp coll \xff b c\n", "", 1, 1),
    "line-count": (EXAMPLE, "not-entailed\n", 0, 1),
    "inconsistent-equality": ("rel coll 2\nhyp coll a b c\neq a b\n", "", 2, 2),
    "failing-proofs": (
        EXAMPLE,
        "entailed (assume 9)\nentailed ((\nentailed (subrefl a b)\n",
        0,
        3,
    ),
    # a broken law, then a syntax error, which wins
    "law-then-syntax-error": (
        EXAMPLE,
        "entailed (trans (assume 9) (assume 0)) x\n" + "not-entailed\n" * 2,
        0,
        3,
    ),
}


def exit_and_garbage(command, **paths):
    """`command`'s exit code, run with automatic collection off, and the
    number of unreachable objects the next `gc.collect()` finds."""
    gc.collect()
    gc.disable()
    try:
        return command(argparse.Namespace(**paths)), gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("ending", COMMAND_ENDINGS)
def test_commands_build_no_reference_cycles(tmp_path, capsys, ending):
    # `main` pauses the cycle collector, which is safe only while nothing a
    # command frees needs it.  The commands are called directly because
    # argparse's own parser is cyclic.
    text, proofs_text, solve_code, check_code = COMMAND_ENDINGS[ending]
    problem, proofs = tmp_path / "p.kq", tmp_path / "p.proofs"
    problem.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert exit_and_garbage(cmd_solve, problem=str(problem)) == (solve_code, 0)
    solved = capsys.readouterr().out
    proofs.write_text(solved if proofs_text is None else proofs_text)
    assert exit_and_garbage(cmd_check, problem=str(problem), proofs=str(proofs)) == (
        check_code,
        0,
    )
    if proofs_text is None:
        assert capsys.readouterr().out == "pass\n" * len(solved.splitlines())


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
def test_commands_run_with_collection_paused(tmp_path, capsys, monkeypatch, enabled):
    example, right, wrong, bad, inconsistent = (
        tmp_path / n for n in ("ex.kq", "right.proofs", "wrong.proofs", "bad.kq", "eq.kq")
    )
    example.write_text(EXAMPLE)
    right.write_text(run(capsys, "solve", str(example))[1])
    wrong.write_text("not-entailed\n" * 2 + "entailed (subrefl a b)\n")
    bad.write_text("rel coll 2\nhyp coll a b\n")
    inconsistent.write_text("rel coll 2\nhyp coll a b c\neq a b\n")
    inside = []
    parse_path = kequiv.cli.parse_path

    def probe(path):
        inside.append(gc.isenabled())
        return parse_path(path)

    monkeypatch.setattr(kequiv.cli, "parse_path", probe)
    # `main` points the descriptor of a stdout it found closed at /dev/null
    sink = open(tmp_path / "sink", "w")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):
            return sink.fileno()

    endings = [
        (["solve", str(example)], 0, None),
        (["check", str(example), str(right)], 0, None),
        (["solve", str(bad)], 1, None),
        (["solve", str(inconsistent)], 2, None),
        (["check", str(example), str(wrong)], 3, None),
        (["solve", str(example)], 1, ClosedPipe()),
    ]
    try:
        for argv, code, stdout in endings:
            (gc.enable if enabled else gc.disable)()
            with monkeypatch.context() as m:
                if stdout is not None:
                    m.setattr(sys, "stdout", stdout)
                assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        gc.enable()
        sink.close()
    assert inside == [False] * len(endings)


# Lines of problem and proof files, and stray bytes to break them with.  The
# one declared arity that no hypothesis can meet is at least 10**12, so an
# engine that tries to enumerate it fails at once instead of allocating
# gigabytes first.
RELATIONS = st.lists(
    st.sampled_from([b"rel r 2\n", b"rel s 1\n", b"rel t 99999999999999\n"]),
    max_size=3,
    unique=True,
).map(b"".join)
PROBLEM_LINES = st.sampled_from(
    [
        b"class a b\n", b"class b c d\n", b"eq a b\n", b"eq c d\n",
        b"hyp r a b c\n", b"hyp r b c d\n", b"hyp r a c d\n", b"hyp s a c\n",
        b"query r a b d\n", b"query s a d\n", b"query t a\n",
    ]
)
PROOF_LINES = st.sampled_from(
    [
        b"not-entailed\n", b"entailed (assume 0)\n", b"entailed (subrefl a b)\n",
        b"entailed (trans (assume 0) (assume 1))\n",
        b"entailed (project (assume 0) a b)\n",
        b"entailed (subst (assume 0) a b 0)\n", b"entailed ((\n",
    ]
)
STRAY_BYTES = st.one_of(
    st.sampled_from([b"\x00", b"\xff", b"#", b" ", b"\n", b"a", b"0", b"("]),
    st.binary(max_size=4),
)


def file_bytes(lines):
    return st.one_of(
        st.binary(max_size=40),
        st.lists(lines, max_size=10).map(b"".join),
        st.lists(st.one_of(lines, STRAY_BYTES), max_size=12).map(b"".join),
    )


# tmp_path and capsys are shared by all examples: each rewrites the files and
# reads the captured output of every command
@given(RELATIONS, file_bytes(PROBLEM_LINES), file_bytes(PROOF_LINES))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_arbitrary_files_end_in_an_exit_code(tmp_path, capsys, relations, body, proofs):
    problem, given, own = (tmp_path / n for n in ("p.kq", "given.proofs", "own.proofs"))
    problem.write_bytes(relations + body)
    given.write_bytes(proofs)
    code, out, _ = run(capsys, "solve", str(problem))
    assert code in (0, 1, 2)
    own.write_text(out)
    assert run(capsys, "check", str(problem), str(given))[0] in (0, 1, 2, 3)
    if code == 0:  # every proof the engine emits checks
        assert run(capsys, "check", str(problem), str(own))[0] == 0
