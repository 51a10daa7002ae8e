"""Smoke test of `scripts/ladder.py`: every measure runs at a small size,
and one ladder prints its three size lines and its growth line."""

import contextlib
import functools
import importlib.util
import io
import re
from pathlib import Path

import pytest

from helpers import (
    chain_shape,
    eq_chain_check_text,
    eq_chain_shared_text,
    k_chain_shape,
    k_pencil_shape,
    many_lines_text,
    pencil_shape,
    short_lines_shape,
    short_lines_text,
)

LADDER = Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    module.deep_proof.cache_clear()


def test_ladder_measures_and_rungs(ladder, tmp_path, capsys):
    n = 20
    for build, _ in ladder.SHAPES.values():
        assert ladder.assert_seconds(build, n) > 0
    lines = functools.partial(short_lines_shape, k=2)
    assert ladder.assert_seconds(lines, n, collector=False) > 0
    assert ladder.peak_bytes(lines, n) > 0
    seconds, grown = ladder.maxrss_growth(n)
    assert seconds > 0 and grown >= 0
    assert ladder.deep_query_seconds(n) > 0
    assert ladder.joining_seconds(n) > 0
    assert ladder.deep_check_seconds(n) > 0
    assert ladder.deep_check_seconds(n, "eq-chain") > 0
    assert ladder.deep_check_fail_seconds(n) > 0
    assert ladder.deep_check_syntax_seconds(n) > 0

    problem = ladder.write(tmp_path, "short-lines.kq", short_lines_text(n))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ladder.kequiv_main(["solve", problem]) == 0
    proofs = ladder.write(tmp_path, "short-lines.proofs", out.getvalue())
    assert ladder.command_seconds("solve", problem) > 0
    assert ladder.command_seconds("check", problem, proofs) > 0
    assert ladder.solve_peak_bytes(problem) > 0

    capsys.readouterr()
    ladder.rungs(
        "chain",
        "assert",
        lambda size: ladder.assert_seconds(chain_shape, size),
        10,
        lambda size: size,
    )
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4, printed
    for line, size in zip(printed, (10, 20, 40)):
        assert re.fullmatch(
            rf"chain +n= +{size} assert +[\d.]+ s  \(range [\d.]+-[\d.]+\)"
            r" +[\d.]+x control +[\d.]+ us/op",
            line,
        ), line
    assert re.fullmatch(
        r"chain +growth exponent -?[\d.]+  control [\d.]+ s \(range [\d.]+-[\d.]+\)",
        printed[3],
    ), printed[3]


def test_check_eq_chain_measure(ladder, tmp_path):
    files = ladder.solved_files(tmp_path, "eq-chain", eq_chain_check_text, (20, 40))
    assert sorted(files) == [20, 40]
    for size, (problem, proofs) in files.items():
        assert Path(problem).name == f"eq-chain-{size}.kq"
        verdicts = [line.split()[0] for line in Path(proofs).read_text().splitlines()]
        assert verdicts == ["entailed", "not-entailed", "entailed", "entailed"]
        assert ladder.command_seconds("check", problem, proofs) > 0


def test_check_shared_steps_measure(ladder, tmp_path):
    files = ladder.solved_files(tmp_path, "eq-shared", eq_chain_shared_text, (20, 40))
    nodes = {}
    for size, (problem, proofs) in files.items():
        lines = Path(proofs).read_text().splitlines()
        # the eq-chain's two queries, then one per ten of its steps
        assert len(lines) == 2 + size // 10
        assert all(line.startswith("entailed (subst ") for line in lines[2:])
        nodes[size] = ladder.proof_nodes(proofs)
        assert ladder.command_seconds("check", problem, proofs) > 0
    assert nodes[40] > 2 * nodes[20] > 0


def test_reading_path_measures(ladder, tmp_path):
    texts = {size: many_lines_text(size) for size in (4, 8)}
    for text in texts.values():
        assert ladder.parse_seconds(text) > 0
    files = ladder.solved_files(tmp_path, "many-lines", texts.get, texts)
    assert sorted(files) == [4, 8]
    for size, (problem, proofs) in files.items():
        assert Path(problem).name == f"many-lines-{size}.kq"
        assert len(Path(proofs).read_text().splitlines()) == 6 * size
        assert ladder.command_seconds("check", problem, proofs) > 0
        assert ladder.solve_peak_bytes(problem) > 0


def test_solve_peak_bytes_per_hypothesis_on_many_lines(ladder, tmp_path):
    # the peak-solve-many-lines rung's measure at n = 300: one string per
    # relation name, the facts' relations and ids in two lists, and a tuple
    # for each absorbed side that moved two or more terms keep the peak
    # under 880 B per `hyp` line (833; a copy of the name per line, a pair
    # per fact and a frozenset for each such side read 987)
    text = many_lines_text(300)
    problem = ladder.write(tmp_path, "many-lines.kq", text)
    hyps = sum(line.startswith("hyp ") for line in text.splitlines())
    peak = ladder.solve_peak_bytes(problem)
    assert peak <= 880 * hyps, peak / hyps


def test_k_ladder(ladder, capsys):
    n = 12
    hypotheses = lambda shape: [xs for _, xs in shape[1]]
    assert hypotheses(k_chain_shape(n, 2)) == hypotheses(chain_shape(n))
    assert hypotheses(k_pencil_shape(n, 2)) == hypotheses(pencil_shape(n))
    for k in ladder.K_LADDER:
        chain, steps = k_chain_shape(n, k)
        pencil, more = k_pencil_shape(n, k)
        for fn, xs in steps + more:
            assert len(xs) == k + 1
            fn(xs)
        chain.validate()
        pencil.validate()
        # the chain fuses into one line; no two pencil lines share k terms
        assert (chain.stats().active, pencil.stats().active) == (1, n)

    capsys.readouterr()
    ladder.rungs(
        "k-chain",
        "assert",
        lambda k: ladder.assert_seconds(functools.partial(k_chain_shape, k=k), n),
        n,
        lambda k: n * (k + 1),
        ks=ladder.K_LADDER,
    )
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 5, printed
    for line, k in zip(printed, ladder.K_LADDER):
        assert re.fullmatch(
            rf"k-chain +k= +{k} assert +[\d.]+ s  \(range [\d.]+-[\d.]+\)"
            r" +[\d.]+x control +[\d.]+ us/op",
            line,
        ), line
    assert re.fullmatch(
        r"k-chain +k_growth exponent -?[\d.]+"
        r"  control [\d.]+ s \(range [\d.]+-[\d.]+\)",
        printed[4],
    ), printed[4]


def test_a_capped_rung_stops_starting_rounds(ladder, capsys):
    sizes = []

    def measure(size):
        sizes.append(size)
        return 0.001 * size

    ladder.rungs("capped", "join", measure, 10, cap=0)
    assert sizes == [10, 20, 40]
    ladder.rungs("capped", "join", measure, 10, cap=60)
    assert len(sizes) == 3 + 3 * ladder.REPEATS
    assert "capped          growth exponent 1.00" in capsys.readouterr().out
