"""Benchmark of the kequiv user path: `kequiv solve`, then `kequiv check`.

Run from the root of a kequiv checkout:

    python3 kqbench/run.py --workload chain-pencil --seed 1 --seconds 25 --trace 0

The workload file is generated from the seed with a planted truth
(workloads.py).  Both commands run in this process through
`kequiv.cli.main`, single threaded.  Every answer is checked: verdicts
against the planted truth, `check` lines for `pass`, exit codes, and solve
output bytes across repeats.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics; `--trace 1` re-runs the
commands with spans around each layer call (tracing.py) and reports the
per-layer metrics instead.  Times are in reference seconds (see Clock).
README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_REPEATS = 3
QUERY_BLOCK_S = 0.6
# time of Clock's calibration run on the reference machine
REFERENCE_S = 0.12


def import_kequiv():
    src = ROOT / "src"
    if not (src / "kequiv" / "__init__.py").is_file():
        sys.exit(f"error: no kequiv sources under {src}")
    sys.path.insert(0, str(src))
    import kequiv

    if Path(kequiv.__file__).resolve().parent != src / "kequiv":
        sys.exit(f"error: imported kequiv from {kequiv.__file__}, not {src}")


class Clock:
    """Wall time converted to reference seconds.

    A shared host runs this process at a speed that drifts by 20-40 % over
    half-minute phases, longer than one benchmark run, so raw wall times of
    identical work differ that much between runs.  Each measured interval
    is therefore divided by the mean time of a fixed calibration run right
    before and right after it, and multiplied by REFERENCE_S, the
    calibration's time on the reference machine.  The calibration uses no
    kequiv code: a dict-update loop for the interpreter's speed, then a
    walk over ints scattered across 40 MB for the memory system's, which
    neighbours on the host slow down more than the CPU.
    """

    def __init__(self) -> None:
        # large ints are separate heap objects the garbage collector ignores
        self._scattered = [2**40 + i for i in range(1_000_000)]
        random.Random(0).shuffle(self._scattered)
        self.last = self._calibrate()

    def _calibrate(self) -> float:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(400_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        total = 0
        for x in self._scattered:
            total += x
        return time.perf_counter() - start

    def measure(self, fn, *args):
        """Run fn(*args); return (result, wall seconds, reference s per wall s)."""
        gc.collect()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self._calibrate()
        scale = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return result, wall, scale


class Tally:
    """Answers checked and answers wrong, over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def verdicts(self, rc: int, lines: list[str], truth: list[bool]) -> None:
        if rc != 0 or len(lines) != len(truth):
            self.add(len(truth), len(truth))
            return
        wrong = sum(line.startswith("entailed") != t for line, t in zip(lines, truth))
        self.add(len(truth), wrong)

    def same(self, rc: int, lines: list[str], expected: list[str]) -> None:
        if rc != 0 or len(lines) != len(expected):
            self.add(len(expected), len(expected))
            return
        self.add(len(expected), sum(a != b for a, b in zip(lines, expected)))


def cli(argv: list[str]) -> tuple[int, list[str]]:
    """`kequiv <argv>` in this process: exit code and stdout lines."""
    from kequiv.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue().splitlines()


class Files:
    """One generated instance on disk: problem file, truth, reference proofs."""

    def __init__(self, workdir: Path, tag: str, workload: str, seed: int, scale: float):
        import workloads

        self.problem = str(workdir / f"{tag}.kq")
        self.proofs = str(workdir / f"{tag}.proofs")
        self.inst = workloads.build(workload, seed, scale)
        with open(self.problem, "w", encoding="utf-8") as f:
            f.write(self.inst.text())
        self.truth = self.inst.truth()
        self.passes = ["pass"] * len(self.truth)
        self.reference: list[str] = []

    def set_reference(self, rc: int, lines: list[str], tally: Tally) -> None:
        tally.verdicts(rc, lines, self.truth)
        self.reference = lines
        with open(self.proofs, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))


def build_state(problem):
    """The state `kequiv solve` builds, made through the public API."""
    from kequiv import CongruenceState
    from kequiv.problem import Atom

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


def query_block(state, queries) -> tuple[list[list[float]], list[list[str]]]:
    """Repeated passes over the queries, each timing query_atom plus format_proof.

    Runs at least two passes and at least QUERY_BLOCK_S of them, so that
    workloads with microsecond queries gather as many samples as those
    with deep proofs.  Returns wall seconds per query and the output lines,
    one list per pass.
    """
    from kequiv import format_proof

    seconds, lines = [], []
    end = time.perf_counter() + QUERY_BLOCK_S
    while len(seconds) < 2 or time.perf_counter() < end:
        seconds.append([])
        lines.append([])
        for rel, ids in queries:
            start = time.perf_counter()
            proof = state.query_atom(rel, ids)
            text = None if proof is None else format_proof(proof, state.term_names)
            seconds[-1].append(time.perf_counter() - start)
            lines[-1].append("not-entailed" if text is None else "entailed " + text)
    return seconds, lines


def end_to_end(files: Files, clock: Clock, seconds: float, tally: Tally):
    from kequiv import parse_path

    tracemalloc.start()
    try:
        rc, lines = cli(["solve", files.problem])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    files.set_reference(rc, lines, tally)

    problem = parse_path(files.problem)
    ids = {name: i for i, name in enumerate(problem.term_order)}
    queries = [(q.relation, [ids[t] for t in q.terms]) for q in problem.queries]

    solve_s, check_s = [], []
    latency: list[list[float]] = [[] for _ in queries]
    deadline = time.perf_counter() + seconds
    while len(solve_s) < MIN_REPEATS or time.perf_counter() < deadline:
        (rc, lines), wall, scale = clock.measure(cli, ["solve", files.problem])
        tally.same(rc, lines, files.reference)
        solve_s.append(wall * scale)
        (rc, lines), wall, scale = clock.measure(cli, ["check", files.problem, files.proofs])
        tally.same(rc, lines, files.passes)
        check_s.append(wall * scale)
        # a fresh state each round, so that query latencies are not tied to
        # one heap layout for the whole run
        state = build_state(problem)
        (passes, outputs), _, scale = clock.measure(query_block, state, queries)
        for lines in outputs:
            tally.same(0, lines, files.reference)
        for per_query in passes[1:]:  # the first pass warms up
            for samples, t in zip(latency, per_query):
                samples.append(t * scale)

    per_query_ms = [statistics.median(s) * 1e3 for s in latency]
    metrics = {
        "solve_s": (statistics.median(solve_s), "s"),
        "check_s": (statistics.median(check_s), "s"),
        "query_ms_p50": (statistics.median(per_query_ms), "ms"),
        "query_ms_p90": (statistics.quantiles(per_query_ms, n=10)[8], "ms"),
        "peak_mib": (peak / 2**20, "MiB"),
    }
    return metrics, {
        "solve_s": solve_s,
        "check_s": check_s,
        "queries": len(queries),
        "samples_per_query": len(latency[0]),
    }


def replay_engine(files: Files, interned, clock: Clock, tally: Tally) -> dict:
    """Reference seconds to assert all hypotheses into bare engine sessions,
    then to resolve all queries there.

    A bare Session has no equality layer, so each term is replaced by its
    planted equality representative; on eq-free workloads that is the
    identity.
    """
    from kequiv import Session

    ids = interned.term_ids
    rep = {ids[a]: ids[b] for a, b in files.inst.rep.items()}
    sessions = {}
    for rel, k in interned.relations.items():
        sessions[rel] = Session(k, interned.class_of)
        for name in interned.term_names:
            sessions[rel].intern_term(name)
    image = lambda rel, xs: (sessions[rel], [rep.get(x, x) for x in xs])
    atoms = [image(rel, xs) for rel, xs in interned.atoms]
    queries = [image(rel, xs) for rel, xs in interned.queries]

    def assert_all():
        for session, xs in atoms:
            session.assert_hypothesis(xs)

    def resolve_all():
        return [session.resolve_query(xs) is not None for session, xs in queries]

    _, wall, scale = clock.measure(assert_all)
    out = {"engine.assert_s": wall * scale}
    verdicts, wall, scale = clock.measure(resolve_all)
    out["engine.resolve_s"] = wall * scale
    tally.add(len(files.truth), sum(v != t for v, t in zip(verdicts, files.truth)))
    return out


def proof_sizes(files: Files) -> dict:
    """Size of the emitted proofs, read from their canonical text."""
    from kequiv import intern_problem, parse_path, parse_proof, used_hypotheses

    ids = intern_problem(parse_path(files.problem)).term_ids
    nodes = depth = cited = size = 0
    for line in files.reference:
        if not line.startswith("entailed "):
            continue
        text = line[len("entailed ") :]
        size += len(text.encode("utf-8"))
        nodes += text.count("(")
        level = 0
        for ch in text:
            if ch == "(":
                level += 1
                depth = max(depth, level)
            elif ch == ")":
                level -= 1
        cited += len(used_hypotheses(parse_proof(text, ids)))
    return {
        "proofs.nodes": (nodes, "count"),
        "proofs.max_depth": (depth, "count"),
        "proofs.cited_hyps": (cited, "count"),
        "proofs.text_bytes": (size, "bytes"),
    }


def engine_counters(state) -> dict:
    sessions = state.sessions.values()
    stats = [s.stats() for s in sessions]
    return {
        "congruence.rewrites": (sum(s.rewrites for s in stats), "count"),
        "engine.merges": (sum(s.merges for s in stats), "count"),
        "engine.find_merges_calls": (sum(s.find_merges_calls for s in stats), "count"),
        "engine.max_kset_size": (max(s.max_kset_size for s in stats), "count"),
        "engine.max_parents": (max(s.max_parents for s in stats), "count"),
        "engine.arena_terms": (sum(len(r.terms) for s in sessions for r in s.ksets), "count"),
    }


def traced(tracer, argv: list[str], expected: list[str], tally: Tally):
    """One traced command: (total, seconds per layer, self seconds), all wall."""
    (rc, lines), total, layers, own = tracer.run(cli, argv)
    tally.same(rc, lines, expected)
    if not math.isclose(sum(layers.values()) + own, total, abs_tol=1e-6):
        raise RuntimeError(f"layer spans of `kequiv {argv[0]}` nest")
    return total, layers, own


def per_layer(full: Files, half: Files, clock: Clock, seconds: float, tally: Tally):
    from kequiv import intern_problem, parse_path
    from tracing import Tracer

    interned = {}
    for size, files in (("full", full), ("half", half)):
        files.set_reference(*cli(["solve", files.problem]), tally)
        interned[size] = intern_problem(parse_path(files.problem))

    samples: dict[str, dict[str, list[float]]] = {"full": {}, "half": {}}

    def keep(size, values):
        for name, v in values.items():
            samples[size].setdefault(name, []).append(v)

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while len(samples["full"].get("cli.solve_s", ())) < MIN_REPEATS or time.perf_counter() < deadline:
        for size, files in (("full", full), ("half", half)):
            # a layer's time is what its spans took in one solve plus one check
            values = {}
            for argv, expected in (
                (["solve", files.problem], files.reference),
                (["check", files.problem, files.proofs], files.passes),
            ):
                with tracer.patch():
                    (total, layers, own), _, scale = clock.measure(
                        traced, tracer, argv, expected, tally
                    )
                for name, t in layers.items():
                    values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + t * scale
                values[f"cli.{argv[0]}_s"] = total * scale
                values[f"cli.{argv[0]}_self_s"] = own * scale
            values.update(replay_engine(files, interned[size], clock, tally))
            keep(size, values)
        (rc, lines), wall, scale = clock.measure(cli, ["solve", full.problem])
        tally.same(rc, lines, full.reference)
        keep("full", {"untraced_solve_s": wall * scale})

    med = {
        size: {name: statistics.median(v) for name, v in s.items()}
        for size, s in samples.items()
    }
    full_m, half_m = med["full"], med["half"]

    def growth(name):
        # a layer that does no work at either size has constant cost
        if full_m[name] == 0 and half_m[name] == 0:
            return 0.0
        return math.log2(full_m[name] / half_m[name])

    metrics = {name: (v, "s") for name, v in full_m.items() if name != "untraced_solve_s"}
    metrics["trace.overhead_s"] = (full_m["cli.solve_s"] - full_m["untraced_solve_s"], "s")
    for name, layer in (
        ("engine.assert_growth", "engine.assert_s"),
        ("congruence.assert_eq_growth", "congruence.assert_eq_s"),
        ("proofs.check_growth", "proofs.check_s"),
    ):
        metrics[name] = (growth(layer), "exponent")
    metrics.update(engine_counters(build_state(parse_path(full.problem))))
    metrics.update(proof_sizes(full))
    return metrics, {"repeats": len(samples["full"]["cli.solve_s"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    import_kequiv()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = ROOT / ".kqbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    clock = Clock()
    try:
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            files, wall, scale = clock.measure(
                Files, workdir, "full", args.workload, args.seed, 1.0
            )
            setup_s.append(wall * scale)
        if args.trace:
            half = Files(workdir, "half", args.workload, args.seed, 0.5)
            metrics, info = per_layer(files, half, clock, args.seconds, tally)
        else:
            metrics, info = end_to_end(files, clock, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(f"error_rate: {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} answers)")
    print(f"samples: {json.dumps(info)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
