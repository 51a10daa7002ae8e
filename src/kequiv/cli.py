"""Batch front end: solve problem files, check proofs, generate instances,
and benchmark the closure engine against the naive saturation baseline.

Exit codes: 0 success, 1 usage or parse error, 2 guard violation,
3 proof-check failure.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from typing import Sequence

from . import oracle
from .congruence import CongruenceState, InconsistentEqualityError
from .problem import (
    Atom,
    ParseError,
    Problem,
    generate,
    intern_problem,
    parse_path,
    parse_text,
)
from .proofs import ProofCheckError, ProofSyntaxError, check, format_proof, parse_proof

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


def _build_state(problem: Problem) -> CongruenceState:
    state = CongruenceState(problem.relations)
    for name in problem.term_order:
        state.intern_term(name)
    for group in problem.classes:
        state.mark_possibly_equal([state.term_id(t) for t in group])
    for st in problem.statements:
        if isinstance(st, Atom):
            state.assert_atom(st.relation, [state.term_id(t) for t in st.terms])
        else:
            state.assert_eq(state.term_id(st.a), state.term_id(st.b))
    return state


def _solve_kset_lines(problem: Problem) -> list[str]:
    state = _build_state(problem)
    lines = []
    for q in problem.queries:
        proof = state.query_atom(q.relation, [state.term_id(t) for t in q.terms])
        if proof is None:
            lines.append("not-entailed")
        else:
            lines.append("entailed " + format_proof(proof, state.term_names))
    return lines


def _solve_naive_lines(problem: Problem) -> list[str]:
    interned = intern_problem(problem)
    if interned.equalities:
        raise ValueError("the naive engine does not support eq statements")
    universe = range(len(interned.term_names))
    if len(interned.term_names) > oracle.MAX_UNIVERSE:
        raise ValueError(
            f"the naive engine is limited to {oracle.MAX_UNIVERSE} terms"
        )
    atoms = {}
    for rel, k in interned.relations.items():
        hyps = [xs for r, xs in interned.atoms if r == rel]
        atoms[rel] = oracle.saturate(k, hyps, universe, interned.class_of)
    lines = []
    for rel, xs in interned.queries:
        k = interned.relations[rel]
        s = sorted(set(xs))
        if len(s) <= k:
            entailed = True
        else:
            entailed = all(
                c in atoms[rel] for c in itertools.combinations(s, k + 1)
            )
        lines.append("entailed" if entailed else "not-entailed")
    return lines


def cmd_solve(args) -> int:
    try:
        problem = parse_path(args.problem)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        return _fail(str(e), EXIT_USAGE)
    try:
        if args.engine == "naive":
            lines = _solve_naive_lines(problem)
        else:
            lines = _solve_kset_lines(problem)
    except (ValueError, InconsistentEqualityError) as e:
        return _fail(str(e), EXIT_GUARD)
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        problem = parse_path(args.problem)
        with open(args.proofs, encoding="utf-8") as f:
            proof_lines = f.read().splitlines()
    except (ParseError, OSError, UnicodeDecodeError) as e:
        return _fail(str(e), EXIT_USAGE)
    if len(proof_lines) != len(problem.queries):
        return _fail(
            f"{args.proofs}: {len(proof_lines)} lines for "
            f"{len(problem.queries)} queries",
            EXIT_USAGE,
        )
    try:
        state = _build_state(problem)
    except (ValueError, InconsistentEqualityError) as e:
        return _fail(str(e), EXIT_GUARD)
    ok = True
    for lineno, (query, line) in enumerate(
        zip(problem.queries, proof_lines), start=1
    ):
        line = line.strip()
        if line == "not-entailed":
            print("pass")
            continue
        if not line.startswith("entailed"):
            print(f"fail: line {lineno}: expected 'entailed' or 'not-entailed'")
            ok = False
            continue
        text = line[len("entailed") :].strip()
        if not text:
            print(f"fail: line {lineno}: no proof given")
            ok = False
            continue
        session = state.sessions[query.relation]
        expected = frozenset(
            state.canonical(state.term_id(t)) for t in query.terms
        )
        try:
            proof = parse_proof(text, state.term_id)
            conclusion = check(
                proof,
                session.k,
                session.hypotheses,
                session.class_of,
                state.equalities,
            )
        except (ProofSyntaxError, ProofCheckError) as e:
            print(f"fail: line {lineno}: {e}")
            ok = False
            continue
        if conclusion != expected:
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


def _bench_kset(problem: Problem) -> tuple[float, dict]:
    start = time.perf_counter()
    state = _build_state(problem)
    for q in problem.queries:
        proof = state.query_atom(q.relation, [state.term_id(t) for t in q.terms])
        if proof is not None:
            format_proof(proof, state.term_names)
    elapsed = time.perf_counter() - start
    (session,) = state.sessions.values()
    stats = session.stats()
    return elapsed, {
        "n_hyps": stats.hypotheses,
        "merges": stats.merges,
        "max_kset": stats.max_kset_size,
        "find_merges_calls": stats.find_merges_calls,
    }


def _bench_naive(problem: Problem) -> tuple[float, dict]:
    interned = intern_problem(problem)
    start = time.perf_counter()
    _solve_naive_lines(problem)
    elapsed = time.perf_counter() - start
    return elapsed, {"n_hyps": len(interned.atoms)}


def cmd_bench(args) -> int:
    engines = ["kset", "naive"] if args.engine == "both" else [args.engine]
    rows = ["engine,k,n_hyps,n_terms,seed,wall_time,merges,max_kset,find_merges_calls"]
    for k in args.k:
        try:
            text = generate(k, args.terms, args.lines, args.seed)
        except ValueError as e:
            return _fail(str(e), EXIT_GUARD)
        problem = parse_text(text)
        for engine in engines:
            try:
                if engine == "kset":
                    elapsed, info = _bench_kset(problem)
                else:
                    elapsed, info = _bench_naive(problem)
            except ValueError as e:
                return _fail(str(e), EXIT_GUARD)
            rows.append(
                ",".join(
                    [
                        engine,
                        str(k),
                        str(info["n_hyps"]),
                        str(args.terms),
                        str(args.seed),
                        f"{elapsed:.6f}",
                        str(info.get("merges", "")),
                        str(info.get("max_kset", "")),
                        str(info.get("find_merges_calls", "")),
                    ]
                )
            )
    out = "\n".join(rows) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="kequiv",
        description="Decide k-equivalence relation atoms with proofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="answer the queries of a problem file")
    p_solve.add_argument("problem")
    p_solve.add_argument(
        "--engine", choices=["kset", "naive"], default="kset"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="check a proofs file against a problem")
    p_check.add_argument("problem")
    p_check.add_argument("proofs")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random problem file")
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--terms", type=int, required=True)
    p_gen.add_argument("--lines", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--partition-rate", type=float, default=0.0)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time engines on generated instances")
    p_bench.add_argument("--k", type=int, nargs="+", required=True)
    p_bench.add_argument("--terms", type=int, required=True)
    p_bench.add_argument("--lines", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--engine", choices=["kset", "naive", "both"], default="both"
    )
    p_bench.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
