import pytest

from kequiv.cli import main
from kequiv.problem import generate

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


@pytest.fixture
def example(tmp_path):
    path = tmp_path / "example.kq"
    path.write_text(EXAMPLE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_golden_output(self, example, capsys):
        code, out, _ = run(capsys, "solve", example)
        assert code == 0
        assert out.splitlines() == [
            "entailed (project (trans (assume 0) (assume 4)) a b d)",
            "entailed (subrefl a b)",
            "entailed (project (trans (assume 1) (assume 4)) b c e)",
        ]

    def test_naive_engine_agrees(self, example, capsys):
        code, out, _ = run(capsys, "solve", example, "--engine", "naive")
        assert code == 0
        assert out.splitlines() == ["entailed", "entailed", "entailed"]

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

    def test_naive_rejects_equalities(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text(CONGRUENCE)
        code, _, err = run(capsys, "solve", str(path), "--engine", "naive")
        assert code == 2
        assert "eq" in err

    def test_naive_rejects_large_universe(self, tmp_path, capsys):
        text = generate(2, 20, 1, seed=0)
        path = tmp_path / "big.kq"
        path.write_text(text)
        code, _, err = run(capsys, "solve", str(path), "--engine", "naive")
        assert code == 2

    def test_congruence_file(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text(CONGRUENCE)
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert out.startswith("entailed ")

    def test_inconsistent_equality_exit_two(self, tmp_path, capsys):
        path = tmp_path / "c.kq"
        path.write_text("rel coll 2\nhyp coll a b c\neq a b\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "distinct" in err

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["solve"])
        assert e.value.code == 1

    def test_output_bytes_deterministic(self, example, capsys):
        _, first, _ = run(capsys, "solve", example)
        _, second, _ = run(capsys, "solve", example)
        assert first == second

    def test_engines_agree_on_generated_instances(self, tmp_path, capsys):
        agreed = 0
        for i in range(200):
            k = (i % 3) + 1
            rate = 0.4 if i % 3 == 0 else 0.0
            text = generate(k, 3 * (k + 1), 2, seed=1000 + i, partition_rate=rate)
            path = tmp_path / f"g{i}.kq"
            path.write_text(text)
            code_k, out_k, _ = run(capsys, "solve", str(path))
            code_n, out_n, _ = run(capsys, "solve", str(path), "--engine", "naive")
            assert code_k == code_n == 0
            verdicts_k = [l.split()[0] for l in out_k.splitlines()]
            verdicts_n = [l.split()[0] for l in out_n.splitlines()]
            assert verdicts_k == verdicts_n, f"instance {i} disagrees"
            agreed += 1
        assert agreed == 200

    def test_multiple_relations_share_equalities(self, tmp_path, capsys):
        path = tmp_path / "multi.kq"
        path.write_text(
            "rel coll 2\n"
            "rel cycl 3\n"
            "class e x\n"
            "hyp coll a b e\n"
            "hyp cycl a b c e\n"
            "eq e x\n"
            "query coll a b x\n"
            "query cycl a b c x\n"
        )
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert [l.split()[0] for l in out.splitlines()] == ["entailed"] * 2


class TestCheck:
    def solve_to_file(self, capsys, tmp_path, problem_path, engine="kset"):
        code, out, _ = run(capsys, "solve", problem_path, "--engine", engine)
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

    def test_non_utf8_proofs_exit_one(self, example, tmp_path, capsys):
        proofs = tmp_path / "proofs.txt"
        proofs.write_bytes(b"entailed (assume \xff)\nnot-entailed\nnot-entailed\n")
        code, out, err = run(capsys, "check", example, str(proofs))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "utf-8" in err

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


class TestBench:
    def test_csv_shape_and_determinism(self, capsys):
        args = [
            "bench", "--k", "1", "2", "--terms", "8", "--lines", "1",
            "--seed", "3", "--engine", "both",
        ]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        lines = first.splitlines()
        assert lines[0] == (
            "engine,k,n_hyps,n_terms,seed,wall_time,merges,max_kset,"
            "find_merges_calls"
        )
        assert len(lines) == 5
        strip_time = lambda text: [
            ",".join(f for i, f in enumerate(l.split(",")) if i != 5)
            for l in text.splitlines()
        ]
        assert strip_time(first) == strip_time(second)

    def test_single_line_merge_count(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        code, out, _ = run(
            capsys,
            "bench", "--k", "2", "--terms", "1002", "--lines", "1",
            "--engine", "kset", "--csv", str(csv),
        )
        assert code == 0
        row = csv.read_text().splitlines()[1].split(",")
        assert row[0] == "kset"
        assert row[2] == "1000"  # hypotheses
        assert row[6] == "999"  # merges
