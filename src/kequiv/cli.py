"""Batch front end: solve problem files, check proofs, generate instances.

Exit codes: 0 success, 1 usage or parse error or closed stdout, 2 guard
violation, 3 proof-check failure.

A command runs with automatic garbage collection paused: everything it
builds is freed by reference counting, because its heap holds no
reference cycles, and a test enforces that.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Sequence

from .congruence import CongruenceState, InconsistentEqualityError
from .engine import TermTable
from .problem import (
    ParseError,
    Problem,
    find,
    generate,
    intern_problem,
    parse_path,
    split_lines,
    union,
)
from .proofs import ProofCheckError, ProofSyntaxError, checker, format_proof, numeral

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_PROOF = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _int(text: str) -> int:
    """An integer option, read by `numeral`, refused as argparse's `int` refuses."""
    try:
        return numeral(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_state(problem: Problem) -> CongruenceState:
    """The closure of the problem's facts, over a term table that adopts
    the problem's names and ids."""
    terms = TermTable.from_names(problem.term_order, problem.term_ids)
    state = CongruenceState(problem.relations, terms)
    for group in problem.class_ids:
        state.mark_possibly_equal(group)
    for rel, xs in zip(problem.fact_relations, problem.fact_ids):
        if rel is None:
            state.assert_eq(*xs)
        else:
            state.assert_atom(rel, xs)
    return state


def cmd_solve(args) -> int:
    try:
        problem = parse_path(args.problem)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        return _fail(str(e), EXIT_USAGE)
    # every answer is found before the first is printed
    lines = []
    try:
        state = _build_state(problem)
        for rel, xs in problem.query_ids:
            proof = state.query_atom(rel, xs)
            if proof is None:
                lines.append("not-entailed")
            else:
                lines.append("entailed " + format_proof(proof, state.term_names))
    except (ValueError, InconsistentEqualityError) as e:
        return _fail(str(e), EXIT_GUARD)
    del state  # the answers are printed with the closure freed
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        problem = parse_path(args.problem)
        with open(args.proofs, encoding="utf-8-sig") as f:
            proof_lines = split_lines(f.read())
    except (ParseError, OSError, UnicodeDecodeError) as e:
        return _fail(str(e), EXIT_USAGE)
    if len(proof_lines) != len(problem.query_ids):
        return _fail(
            f"{args.proofs}: {len(proof_lines)} lines for "
            f"{len(problem.query_ids)} queries",
            EXIT_USAGE,
        )
    # everything the checker needs comes from the file, not from the engine
    interned = intern_problem(problem)
    names, class_of = interned.term_names, interned.class_of
    # the equality log's blocks, which a conclusion must share with its query
    blocks: dict[int, int] = {}
    for a, b in interned.equalities:
        if class_of[a] != class_of[b]:
            return _fail(
                f"terms {names[a]!r} and {names[b]!r} are known distinct", EXIT_GUARD
            )
        union(blocks, a, b)
    # each block's root, flattened once, so a match reads one dict per term
    root = {t: find(blocks, t) for t in blocks}
    # one judge per relation for the whole file, which freezes a hypothesis
    # when a proof first cites it and keeps each leaf and `subst` step it
    # has judged
    hypotheses = {rel: [] for rel in interned.relations}
    for rel, xs in interned.atoms:
        hypotheses[rel].append(xs)
    judges = {
        rel: checker(
            k, hypotheses[rel], class_of, interned.equalities, ids=interned.term_ids
        )
        for rel, k in interned.relations.items()
    }
    ok = True
    for lineno, ((rel, xs), line) in enumerate(
        zip(interned.queries, proof_lines), start=1
    ):
        line = line.strip()
        if line == "not-entailed":
            print("pass")
            continue
        # the word 'entailed', then whitespace and the proof
        fields = line.split(None, 1)
        if not fields or fields[0] != "entailed":
            print(f"fail: line {lineno}: expected 'entailed' or 'not-entailed'")
            ok = False
            continue
        if len(fields) == 1:
            print(f"fail: line {lineno}: no proof given")
            ok = False
            continue
        try:
            conclusion = judges[rel](fields[1])
        except (ProofSyntaxError, ProofCheckError) as e:
            print(f"fail: line {lineno}: {e}")
            ok = False
            continue
        if set(map(root.get, conclusion, conclusion)) != set(map(root.get, xs, xs)):
            print(f"fail: line {lineno}: conclusion does not match the query")
            ok = False
            continue
        print("pass")
    return EXIT_OK if ok else EXIT_PROOF


def cmd_gen(args) -> int:
    try:
        text = generate(
            args.k, args.terms, args.lines, args.seed, args.partition_rate
        )
    except ValueError as e:
        return _fail(str(e), EXIT_GUARD)
    sys.stdout.write(text)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="kequiv",
        description="Decide k-equivalence relation atoms with proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="answer the queries of a problem file")
    p_solve.add_argument("problem")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="check a proofs file against a problem")
    p_check.add_argument("problem")
    p_check.add_argument("proofs")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random problem file")
    p_gen.add_argument("--k", type=_int, required=True)
    p_gen.add_argument("--terms", type=_int, required=True)
    p_gen.add_argument("--lines", type=_int, required=True)
    p_gen.add_argument("--seed", type=_int, default=0)
    p_gen.add_argument("--partition-rate", type=float, default=0.0)
    p_gen.set_defaults(func=cmd_gen)

    args = parser.parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left early; send the rest, and the flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
