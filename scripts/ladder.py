"""Doubling ladder for the engine's assert path and a deep query, with growth exponents.

Builds each workload shape of `tests/helpers.py` at n, 2n and 4n, times
its asserts (best of REPEATS, the same for every shape and rung), and
prints one line per rung plus the growth exponent log(t(4n) / t(n)) / log 4.
An exponent near 1 is linear growth, near 2 quadratic.  The deep-query
rung times `resolve_query` plus `format_proof` of (p0, p1, p_n+1) on the
asserted chain, whose proof has about n levels.

    PYTHONPATH=src:tests python scripts/ladder.py
"""

from __future__ import annotations

import gc
import math
import time

from helpers import chain_shape, eq_chain_shape, pencil_closed_shape, pencil_shape

from kequiv import format_proof

REPEATS = 5

SHAPES = {
    "chain": (chain_shape, 2000),
    "pencil": (pencil_shape, 2000),
    "pencil-closed": (pencil_closed_shape, 2000),
    "eq-chain": (eq_chain_shape, 1000),
}


def assert_seconds(build, n):
    best = math.inf
    for _ in range(REPEATS):
        _, steps = build(n)
        gc.collect()
        start = time.perf_counter()
        for fn, arg in steps:
            fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def deep_query_seconds(n):
    session, steps = chain_shape(n)
    for fn, arg in steps:
        fn(arg)
    best = math.inf
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        format_proof(session.resolve_query((0, 1, n + 1)), session.term_names)
        best = min(best, time.perf_counter() - start)
    return best


def rungs(name, what, seconds, n):
    times = []
    for size in (n, 2 * n, 4 * n):
        t = seconds(size)
        times.append(t)
        print(f"{name:14} n={size:6d} {what} {t:8.4f} s")
    print(f"{name:14} growth exponent {math.log(times[2] / times[0], 4):.2f}")


def main():
    for name, (build, n) in SHAPES.items():
        rungs(name, "assert", lambda size: assert_seconds(build, size), n)
    rungs("deep-query", "query", deep_query_seconds, 1000)


if __name__ == "__main__":
    main()
