"""Seeded workload generators with a planted ground truth.

Each generator builds a problem from a known set of *planted lines*: term
sets that the hypotheses cover by overlapping chains, so that each line is
derivable as one object and no two lines can fuse.  A query's expected
verdict follows from the construction alone (its terms, after the planted
equalities, number at most k or lie on one planted line), without running
any part of kequiv.  `test_workloads.py` checks that claim against the
brute-force oracle on downsized instances.

The same (name, seed, scale) always yields the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("chain-pencil", "eq-chain", "many-lines")


@dataclass
class Instance:
    relations: dict[str, int]
    classes: list[tuple[str, ...]] = field(default_factory=list)
    # ("hyp", relation, terms) or ("eq", a, b), in file order
    statements: list[tuple] = field(default_factory=list)
    queries: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    # planted lines per relation, over representative term names
    lines: dict[str, list[frozenset[str]]] = field(default_factory=dict)
    # planted equality representative of each equated term
    rep: dict[str, str] = field(default_factory=dict)

    def text(self) -> str:
        out = [f"rel {name} {k}" for name, k in self.relations.items()]
        out += ["class " + " ".join(group) for group in self.classes]
        for st in self.statements:
            if st[0] == "hyp":
                out.append(f"hyp {st[1]} " + " ".join(st[2]))
            else:
                out.append(f"eq {st[1]} {st[2]}")
        out += [f"query {rel} " + " ".join(ts) for rel, ts in self.queries]
        return "\n".join(out) + "\n"

    def truth(self) -> list[bool]:
        """Planted verdict of every query, in file order."""
        on_lines: dict[str, dict[str, set[int]]] = {}
        for rel, lines in self.lines.items():
            index: dict[str, set[int]] = {}
            for i, line in enumerate(lines):
                for t in line:
                    index.setdefault(t, set()).add(i)
            on_lines[rel] = index
        verdicts = []
        for rel, terms in self.queries:
            canon = {self.rep.get(t, t) for t in terms}
            if len(canon) <= self.relations[rel]:
                verdicts.append(True)
                continue
            index = on_lines[rel]
            common = None
            for t in canon:
                ids = index.get(t, set())
                common = set(ids) if common is None else common & ids
                if not common:
                    break
            verdicts.append(bool(common))
        return verdicts

    def hypotheses(self, rel: str) -> list[tuple[str, ...]]:
        return [st[2] for st in self.statements if st[0] == "hyp" and st[1] == rel]


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct names whose numbering is a seeded permutation."""
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def _spans(n: int, lo: float, hi: float, length: int) -> list[int]:
    """n proof-depth targets spread evenly over [lo, hi] * length.

    Stratified rather than random, so that latency percentiles land on the
    same depths for every seed.
    """
    return [
        max(2, int(length * (lo + (hi - lo) * (i + 0.5) / n))) for i in range(n)
    ]


def chain_pencil(seed: int, scale: float = 1.0) -> Instance:
    """One long line of in-order triples plus a pencil of lines through a hub.

    The long line grows one k-set by a merge per triple; each pencil line
    asserts a triple through the hub, whose parent list keeps growing.
    Just over half the queries lie on the long line and get proofs as deep
    as the points are far apart.
    """
    rng = random.Random(f"chain-pencil/{seed}")
    chain_len = max(4, int(1000 * scale))
    pencil = max(4, int(1200 * scale))
    n_queries = 120
    rel = "coll"
    inst = Instance({rel: 2})

    p = _names(rng, "p", chain_len + 2)
    for i in range(chain_len):
        inst.statements.append(("hyp", rel, (p[i], p[i + 1], p[i + 2])))
    inst.lines[rel] = [frozenset(p)]

    hub = "h"
    a, b, c = (_names(rng, x, pencil) for x in "abc")
    order = list(range(pencil))
    rng.shuffle(order)
    for j in order:
        inst.statements.append(("hyp", rel, (hub, a[j], b[j])))
        inst.statements.append(("hyp", rel, (a[j], b[j], c[j])))
        inst.lines[rel].append(frozenset((hub, a[j], b[j], c[j])))

    n_deep = n_queries * 11 // 20
    n_pencil = (n_queries - n_deep) // 2
    for span in _spans(n_deep, 0.5, 1.0, chain_len + 1):
        lo = rng.randrange(chain_len + 2 - span)
        mid = rng.randrange(lo + 1, lo + span)
        inst.queries.append((rel, (p[lo], p[mid], p[lo + span])))
    for _ in range(n_pencil):
        j = rng.randrange(pencil)
        inst.queries.append((rel, (hub, a[j], c[j])))
    for _ in range(n_queries - n_deep - n_pencil):
        i, j = rng.sample(range(pencil), 2)
        inst.queries.append((rel, (a[i], b[i], c[j])))
    rng.shuffle(inst.queries)
    return inst


def eq_chain(seed: int, scale: float = 1.0) -> Instance:
    """Lines `coll q_i z x_i` that only become one line through `eq q_i q_i+1`.

    All q_i share one possibly-equal class.  Every equality renames a
    k-set, which then merges into the main line; a query `coll q_j x_a
    x_b` is entailed through chains of `subst` steps as long as a and b.
    A quarter of the queries name a point on an off line through z.
    """
    rng = random.Random(f"eq-chain/{seed}")
    n = max(16, int(700 * scale))
    n_off = max(2, int(40 * scale))
    n_queries = 120
    rel = "coll"
    inst = Instance({rel: 2})

    q = _names(rng, "q", n)
    x = _names(rng, "x", n)
    z = "z"
    inst.classes.append(tuple(q))
    for i in range(n):
        inst.statements.append(("hyp", rel, (q[i], z, x[i])))
        if i:
            inst.statements.append(("eq", q[i - 1], q[i]))
    for t in q[1:]:
        inst.rep[t] = q[0]
    inst.lines[rel] = [frozenset([q[0], z, *x])]

    o = _names(rng, "o", 2 * n_off)
    for m in range(n_off):
        inst.statements.append(("hyp", rel, (z, o[2 * m], o[2 * m + 1])))
        inst.lines[rel].append(frozenset((z, o[2 * m], o[2 * m + 1])))

    n_on = n_queries * 3 // 4
    # x_i was renamed through i equalities, so the proof of `q_j x_a x_b`
    # holds about a + b subst steps
    for total in _spans(n_on, 0.1, 1.9, n - 1):
        lo = rng.randrange(max(0, total - n + 1), (total + 1) // 2)
        inst.queries.append((rel, (q[rng.randrange(n)], x[lo], x[total - lo])))
    for _ in range(n_queries - n_on):
        inst.queries.append((rel, (q[rng.randrange(n)], x[rng.randrange(n)], rng.choice(o))))
    rng.shuffle(inst.queries)
    return inst


def many_lines(seed: int, scale: float = 1.0) -> Instance:
    """Three relations (k=1, 2, 3), each with many short lines.

    Each line is covered by windows of k+1 consecutive terms, emitted in a
    shuffled order.  `class` pairs join terms of different lines, so no
    line holds two possibly-equal terms and the planted truth is unchanged.
    Three in five queries lie inside a line, the rest are random.
    """
    rng = random.Random(f"many-lines/{seed}")
    n_lines = max(4, int(625 * scale))
    line_len = 8
    n_pairs = max(2, int(50 * scale))
    n_queries = 500
    inst = Instance({"equiv": 1, "coll": 2, "cycl": 3})
    hyps = []
    for rel, k in inst.relations.items():
        names = _names(rng, rel[0], n_lines * line_len)
        chunks = [names[i * line_len : (i + 1) * line_len] for i in range(n_lines)]
        inst.lines[rel] = [frozenset(chunk) for chunk in chunks]
        for chunk in chunks:
            for i in range(line_len - k):
                hyps.append(("hyp", rel, tuple(chunk[i : i + k + 1])))
        picked = rng.sample(range(n_lines), 2 * n_pairs)
        for i in range(n_pairs):
            first, second = chunks[picked[2 * i]], chunks[picked[2 * i + 1]]
            inst.classes.append((rng.choice(first), rng.choice(second)))
        for i in range(n_queries):
            # more than half, so the median query is an entailed one
            if i % 5 < 3:
                terms = rng.sample(rng.choice(chunks), k + 1)
            else:
                terms = rng.sample(names, k + 1)
            inst.queries.append((rel, tuple(terms)))
    rng.shuffle(hyps)
    inst.statements = hyps
    rng.shuffle(inst.queries)
    return inst


GENERATORS = {
    "chain-pencil": chain_pencil,
    "eq-chain": eq_chain,
    "many-lines": many_lines,
}


def build(name: str, seed: int, scale: float = 1.0) -> Instance:
    return GENERATORS[name](seed, scale)
