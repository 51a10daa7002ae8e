"""In-memory spans around the calls `kequiv.cli` makes into each layer.

The program itself is not instrumented: `Tracer.patch` replaces each
public layer function, wherever a kequiv module holds a reference to it,
by a wrapper that records (name, start, end, depth), and restores the
originals on exit.  `Tracer.run` times one whole CLI command and sums its
spans per layer.
"""

from __future__ import annotations

import contextlib
import sys
import time

import kequiv.problem
import kequiv.proofs
from kequiv.congruence import CongruenceState

# (owner, attribute, span name) in the order `kequiv solve` reaches them
LAYER_CALLS = (
    (kequiv.problem, "parse_path", "problem.parse"),
    (CongruenceState, "intern_term", "congruence.intern"),
    (CongruenceState, "mark_possibly_equal", "congruence.partition"),
    (CongruenceState, "assert_atom", "congruence.assert_atom"),
    (CongruenceState, "assert_eq", "congruence.assert_eq"),
    (CongruenceState, "query_atom", "congruence.query_atom"),
    (kequiv.proofs, "format_proof", "proofs.format"),
    (kequiv.proofs, "parse_proof", "proofs.parse"),
    (kequiv.proofs, "check", "proofs.check"),
)
LAYERS = tuple(name for _, _, name in LAYER_CALLS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._depth = 0

    def _wrap(self, fn, name):
        spans = self.spans

        def traced(*args, **kwargs):
            depth = self._depth
            self._depth = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth = depth
                spans.append((name, start, end, depth))

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Record layer spans while open."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "kequiv"]
        saved = []
        try:
            for owner, attr, name in LAYER_CALLS:
                fn = getattr(owner, attr)
                traced = self._wrap(fn, name)
                # `from .proofs import check` binds the function in the
                # importing module too; patch every such reference
                holders = modules if owner in modules else [owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            saved.append((holder, key, fn))
                            setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, fn in reversed(saved):
                setattr(holder, key, fn)

    def run(self, fn, *args):
        """Call fn(*args) as one top-level span, inside `patch`.

        Returns (result, total seconds, seconds per layer, self seconds).
        The layer sums count spans at every depth while the self time
        subtracts only the direct children, so layers plus self add up to
        the total exactly when no layer call nests inside another.
        """
        self.spans.clear()
        start = time.perf_counter()
        result = fn(*args)
        total = time.perf_counter() - start
        layers = {name: 0.0 for name in LAYERS}
        direct = 0.0
        for name, s, e, depth in self.spans:
            layers[name] += e - s
            if depth == 0:
                direct += e - s
        self.spans.clear()
        return result, total, layers, total - direct
