"""Doubling ladder for the engine's assert path, a deep query and `kequiv solve`.

Builds each workload shape of `tests/helpers.py` at n, 2n and 4n, times
its asserts, and prints one line per rung, with its best time over
REPEATS rounds and the range of all of them, plus the growth exponent
log(t(4n) / t(n)) / log 4 of the best times.  An exponent near 1 is
linear growth, near 2 quadratic.  Each round times n, 2n and 4n before
the next round starts, so a slow phase of the host slows every rung of a
shape, not one.  Each round also times a fixed control, a dict-update
loop that runs no kequiv code, and every line gives its best time as a
multiple of the control's best time as well, so a target can be judged
against the host's speed.  The eq-first rungs assert the eq-chain's
equalities before its hypotheses, so every hypothesis is renamed as it
is asserted.  The eq-balanced rungs mark its q_i possibly equal and then
equate them in balanced pairs, the worst case for a union that relabels
the smaller class.  The two-pencils rungs time only the last n asserts
of the two-pencils shape, the hypotheses (h g x_i) on the line joining
the hubs of two pencils of n lines each, which read a hub's whole parent
list, so they grow quadratically; once the rung has run for
TWO_PENCILS_CAP seconds it starts no further round.  The short-lines
rungs (k = 1, 2, 3) assert n lines of 8 terms covered by shuffled
(k+1)-term windows, the shape of kqbench's many-lines workload, and
also print the best time per hypothesis in microseconds.  The
peak-short-lines rung asserts the k = 2 short-lines shape under
tracemalloc and prints the peak of the memory allocated
while asserting, in bytes and in bytes per hypothesis; its growth
exponent near 1 is memory linear in the hypotheses.  The
peak-solve-short-lines rung writes the same shape as a problem file and
prints the peak of the memory allocated by `kequiv solve` on it in this
process, per hypothesis too: the parse and the term table count there,
which peak-short-lines, whose terms are interned before tracing, cannot
see.  The deep-query
rungs time the proof of (p0, p1, p_n+1) on the asserted chain, which has
about n levels: `resolve_query`, whose proof walk writes the proof's
text pieces, then `format_proof`, which joins them, the path `kequiv
solve` takes.  The deep-check-text rungs time `check` of that proof's
text, the path `kequiv check` takes, the deep-check-fail rungs `check`
of the text with its first `(assume N)` out of range, which must raise
ProofCheckError, and the deep-check-syntax rungs `check` of the text
with its last term name misspelled, which must raise ProofSyntaxError.
Each round times deep-check-syntax and deep-check-text alternately at
each size, so that a slow phase of the host slows both, and the
deep-check-syntax lines also give the median over the rounds of each
round's ratio of the two.  The deep-check-eq rungs
time `check` of the text of the deepest query's proof on the eq-chain,
(z, x0, x_n-1), which is almost all `subst` nodes, a law the chain's
proofs never cite.  The end-to-end rungs write a shape as a problem file
and time `kequiv.cli.main` on it in this process, which runs with the
cyclic garbage collector paused, as every `kequiv` command does:
`kequiv solve` on the closed pencil, and `kequiv check` on the
short-lines shape (k = 2) with the proofs `kequiv solve` gives for it,
where reading the file is most of the work, as on many-lines; the
check-short-lines lines also give the time per hypothesis.  The
check-eq-chain rungs time `kequiv check` on the eq-chain with four
queries, two of them naming members of its equality class, and the
proofs `kequiv solve` gives for it: the rung that runs the checker's
own grouping of the file's `class` lines and its union-find over the
equality log.  The reading path has two rungs on `many_lines_text`,
kqbench's many-lines shape, with the time per line of the file:
parse-many-lines times `parse_text` of its text, with the collector
paused, and check-many-lines times `kequiv check` on it with the proofs
`kequiv solve` gives for it.  The
short-lines rungs pause it too, since many-lines runs through `kequiv
solve`: with it on, its heap walks take a share of each hypothesis that
grows with n.  The other library rungs, the deep query and the control
included, run with it on.

With `--million`, the ladder first runs one more rung, once: the k = 2
short-lines shape at 166,667 lines, 1,000,002 hypotheses, asserted with
the collector paused.  It prints the time per hypothesis and the growth
of the process's peak resident set (`ru_maxrss`) over the asserts, per
hypothesis: the bytes the engine keeps, as the operating system sees
them.  It runs first, while that peak is still the shape's own, and
takes about 20 s and 1 GB, so it is off by default.

    PYTHONPATH=src:tests python scripts/ladder.py [--million]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import math
import os
import re
import resource
import statistics
import tempfile
import time
import tracemalloc

from helpers import (
    chain_shape,
    eq_balanced_shape,
    eq_chain_check_text,
    eq_chain_shape,
    eq_first_shape,
    many_lines_text,
    pencil_closed_shape,
    pencil_closed_text,
    pencil_shape,
    short_lines_shape,
    short_lines_text,
    two_pencils_shape,
)

from kequiv import ProofCheckError, ProofSyntaxError, check, format_proof, parse_text
from kequiv.cli import main as kequiv_main

REPEATS = 5
# lines of the opt-in rung: 6 hypotheses each at k = 2, 10**6 in all
MILLION_LINES = 166_667
# the dict updates the control times, of the order of the deep query at n = 4000
CONTROL_STEPS = 100_000
# seconds after which the quadratic two-pencils rung starts no further round
TWO_PENCILS_CAP = 8.0

SHAPES = {
    "chain": (chain_shape, 2000),
    "pencil": (pencil_shape, 2000),
    "pencil-closed": (pencil_closed_shape, 2000),
    "eq-chain": (eq_chain_shape, 1000),
    "eq-first": (eq_first_shape, 1000),
    "eq-balanced": (eq_balanced_shape, 1000),
}


def assert_seconds(build, n, collector=True):
    """Seconds to assert shape `build` at size n.

    With `collector=False` the cyclic garbage collector is paused while
    the steps run.
    """
    _, steps = build(n)
    gc.collect()
    if not collector:
        gc.disable()
    try:
        start = time.perf_counter()
        for fn, arg in steps:
            fn(arg)
        return time.perf_counter() - start
    finally:
        gc.enable()


def joining_seconds(n):
    """Seconds to assert the n joining hypotheses (h g x_i) of the
    two-pencils shape at size n, after its 2n pencil lines."""
    _, steps = two_pencils_shape(n)
    for fn, arg in steps[: 2 * n]:
        fn(arg)
    gc.collect()
    start = time.perf_counter()
    for fn, arg in steps[2 * n :]:
        fn(arg)
    return time.perf_counter() - start


def parse_seconds(text):
    """Seconds to `parse_text` the problem `text`, with the collector
    paused, as in `kequiv` commands."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        parse_text(text)
        return time.perf_counter() - start
    finally:
        gc.enable()


def peak_bytes(build, n):
    """tracemalloc's peak, in bytes, while asserting shape `build` at size n.

    The shape is built, its terms interned, before tracing starts, and
    the cyclic garbage collector is paused, as in the short-lines rungs.
    """
    _, steps = build(n)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for fn, arg in steps:
            fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def maxrss_growth(n):
    """(seconds, bytes) to assert the k = 2 short-lines shape at n lines,
    with the collector paused: the time, and the growth of the process's
    peak resident set over the asserts (Linux reports `ru_maxrss` in KiB)."""
    _, steps = short_lines_shape(n, 2)
    gc.collect()
    gc.disable()
    try:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        for fn, arg in steps:
            fn(arg)
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return seconds, (after - before) * 1024
    finally:
        gc.enable()


def solve_peak_bytes(path):
    """tracemalloc's peak, in bytes, over `kequiv solve` of the problem file
    at `path` in this process, its output sent to the null device."""
    gc.collect()
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            if kequiv_main(["solve", path]) != 0:
                raise RuntimeError(f"kequiv solve {path} failed")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def deep_query_seconds(n):
    """Seconds to resolve and format the deep query on the chain of size n."""
    session, steps = chain_shape(n)
    for fn, arg in steps:
        fn(arg)
    gc.collect()
    start = time.perf_counter()
    format_proof(session.resolve_query((0, 1, n + 1)), session.term_names)
    return time.perf_counter() - start


# the shape and the term names of the deepest query on it, at size n
DEEP_QUERIES = {
    "chain": (chain_shape, lambda n: ("p0", "p1", f"p{n + 1}")),
    "eq-chain": (eq_chain_shape, lambda n: ("z", "x0", f"x{n - 1}")),
}


@functools.cache
def deep_proof(n, shape="chain"):
    """The deep query's proof text on `shape` at size n, with the context
    `check` judges it in and the term ids."""
    build, query = DEEP_QUERIES[shape]
    session, steps = build(n)
    for fn, arg in steps:
        fn(arg)
    ids = session.terms.term_ids
    pieces = session.resolve_query([ids[name] for name in query(n)])
    text = format_proof(pieces, session.term_names)
    context = (session.k, session.hypotheses, session.class_of, session.equalities)
    return text, context, ids


def deep_check_seconds(n, shape="chain"):
    """Seconds to `check` the deep query's proof text on `shape` at size n."""
    text, context, ids = deep_proof(n, shape)
    gc.collect()
    start = time.perf_counter()
    check(text, *context, ids=ids)
    return time.perf_counter() - start


def deep_check_fail_seconds(n):
    """Seconds to `check` the deep query's proof text on the chain with its
    first `(assume N)` out of range, which `check` must refuse."""
    text, context, ids = deep_proof(n)
    broken = re.sub(r"\(assume \d+\)", f"(assume {len(context[1])})", text, count=1)
    gc.collect()
    start = time.perf_counter()
    try:
        check(broken, *context, ids=ids)
    except ProofCheckError:
        return time.perf_counter() - start
    raise RuntimeError("check passed a hypothesis index out of range")


def deep_check_syntax_seconds(n):
    """Seconds to `check` the deep query's proof text on the chain with its
    last term name misspelled, which `check` must refuse."""
    text, context, ids = deep_proof(n)
    at = text.rindex(" p") + 1
    broken = f"{text[:at]}q{text[at + 1 :]}"
    gc.collect()
    start = time.perf_counter()
    try:
        check(broken, *context, ids=ids)
    except ProofSyntaxError:
        return time.perf_counter() - start
    raise RuntimeError("check passed an unknown term name")


def control_seconds():
    """Seconds for CONTROL_STEPS updates of a small dict: no kequiv code."""
    counts: dict[int, int] = {}
    gc.collect()
    start = time.perf_counter()
    for i in range(CONTROL_STEPS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def command_seconds(*argv):
    """Seconds for `kequiv <argv>` in this process, its output discarded."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        if kequiv_main(list(argv)) != 0:
            raise RuntimeError(f"kequiv {' '.join(argv)} failed")
        return time.perf_counter() - start


def write(directory, name, text):
    """Write `text` to a new file `name` in `directory`; return its path."""
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def solved_files(directory, name, text_of, sizes):
    """For each size, write `text_of(size)` as a problem file in
    `directory` and the proofs `kequiv solve` gives for it beside it;
    return {size: (problem path, proofs path)}."""
    files = {}
    for size in sizes:
        problem = write(directory, f"{name}-{size}.kq", text_of(size))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if kequiv_main(["solve", problem]) != 0:
                raise RuntimeError(f"kequiv solve {problem} failed")
        proofs = write(directory, f"{name}-{size}.proofs", out.getvalue())
        files[size] = (problem, proofs)
    return files


def rungs(name, what, measure, n, steps=None, unit="s", against=None, cap=None):
    """Measure `measure(size)` at n, 2n and 4n in REPEATS interleaved
    rounds, in `unit`: seconds ("s"), with the control timed in each
    round, or bytes ("B"), which have no control.  With `cap`, no round
    starts once the rounds so far have taken `cap` seconds.

    With `steps(size)`, the number of operations measured at that size,
    each line also gives the best value per operation, in microseconds
    or in bytes.  With `against`, a (name, measure) pair, each round
    times that measure too, alternately with `measure` at each size and
    first in every other round, and each line also gives the median over
    the rounds of the ratio of the two.
    """
    sizes = (n, 2 * n, 4 * n)
    values = {size: [] for size in sizes}
    ratios = {size: [] for size in sizes}
    control = []
    start = time.perf_counter()
    for r in range(REPEATS):
        if cap is not None and r and time.perf_counter() - start > cap:
            break
        for size in sizes:
            if against is None:
                values[size].append(measure(size))
                continue
            if r % 2:  # the reference first in every other round
                reference, value = against[1](size), measure(size)
            else:
                value, reference = measure(size), against[1](size)
            values[size].append(value)
            ratios[size].append(value / reference)
        if unit == "s":
            control.append(control_seconds())
    for size in sizes:
        best, worst = min(values[size]), max(values[size])
        if unit == "s":
            value = f"{best:8.4f} s  (range {best:.4f}-{worst:.4f})"
            value += f"  {best / min(control):6.2f}x control"
            per = "" if steps is None else f"  {best / steps(size) * 1e6:6.2f} us/op"
            if against is not None:
                ratio = statistics.median(ratios[size])
                per += f"  {ratio:5.2f}x {against[0]} (median of rounds)"
        else:
            value = f"{best:10d} B  (range {best}-{worst})"
            per = "" if steps is None else f"  {best / steps(size):8.1f} B/op"
        print(f"{name:15} n={size:6d} {what} {value}{per}")
    growth = math.log(min(values[4 * n]) / min(values[n]), 4)
    if control:
        low, high = min(control), max(control)
        print(
            f"{name:15} growth exponent {growth:.2f}"
            f"  control {low:.4f} s (range {low:.4f}-{high:.4f})"
        )
    else:
        print(f"{name:15} growth exponent {growth:.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--million", action="store_true", help="first run the 10**6-hypothesis rung"
    )
    if parser.parse_args().million:
        seconds, grown = maxrss_growth(MILLION_LINES)
        hyps = MILLION_LINES * 6
        print(
            f"{'short-lines-1e6':15} n={hyps} assert {seconds:8.2f} s"
            f"  {seconds / hyps * 1e6:6.2f} us/op"
            f"  {grown / hyps:6.1f} B/op maxrss growth"
        )
    for name, (build, n) in SHAPES.items():
        rungs(name, "assert", lambda size: assert_seconds(build, size), n)
    rungs("two-pencils", "join", joining_seconds, 1000, cap=TWO_PENCILS_CAP)
    for k in (1, 2, 3):
        build = functools.partial(short_lines_shape, k=k)
        rungs(
            f"short-lines-k{k}",
            "assert",
            lambda size: assert_seconds(build, size, collector=False),
            1000,
            lambda size: size * (8 - k),
        )
    rungs(
        "peak-short-lines",
        "peak",
        lambda size: peak_bytes(functools.partial(short_lines_shape, k=2), size),
        1000,
        lambda size: size * 6,
        unit="B",
    )
    rungs("deep-query", "query", deep_query_seconds, 1000)
    rungs("deep-check-text", "check", deep_check_seconds, 1000)
    rungs("deep-check-fail", "check", deep_check_fail_seconds, 1000)
    rungs(
        "deep-check-syntax",
        "check",
        deep_check_syntax_seconds,
        1000,
        against=("deep-check-text", deep_check_seconds),
    )
    rungs("deep-check-eq", "check", lambda n: deep_check_seconds(n, "eq-chain"), 1000)
    deep_proof.cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for size in (4000, 8000, 16000):
            text = pencil_closed_text(size)
            paths[size] = write(tmp, f"pencil-closed-{size}.kq", text)
        rungs(
            "solve-pencil",
            "solve",
            lambda size: command_seconds("solve", paths[size]),
            4000,
        )
        files = solved_files(tmp, "short-lines", short_lines_text, (1000, 2000, 4000))
        rungs(
            "peak-solve-short-lines",
            "peak",
            lambda size: solve_peak_bytes(files[size][0]),
            1000,
            lambda size: size * 6,
            unit="B",
        )
        rungs(
            "check-short-lines",
            "check",
            lambda size: command_seconds("check", *files[size]),
            1000,
            lambda size: size * 6,
        )
        chains = solved_files(tmp, "eq-chain", eq_chain_check_text, (1000, 2000, 4000))
        rungs(
            "check-eq-chain",
            "check",
            lambda size: command_seconds("check", *chains[size]),
            1000,
        )
        texts = {size: many_lines_text(size) for size in (250, 500, 1000)}
        lines = lambda size: texts[size].count("\n")
        rungs(
            "parse-many-lines",
            "parse",
            lambda size: parse_seconds(texts[size]),
            250,
            lines,
        )
        many = solved_files(tmp, "many-lines", texts.get, texts)
        rungs(
            "check-many-lines",
            "check",
            lambda size: command_seconds("check", *many[size]),
            250,
            lines,
        )


if __name__ == "__main__":
    main()
