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
    many_lines_text,
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
