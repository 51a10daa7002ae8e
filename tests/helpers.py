"""Shared test machinery: random instances, differentials, proof mutation."""

from __future__ import annotations

import itertools
import random
import re

from kequiv import (
    CongruenceState,
    Session,
    check,
    closure_sets,
    covered,
    format_proof,
)
from kequiv.problem import relation_name_for


def check_text(pieces, session):
    """`check` of the text an engine query of `session` returned."""
    return check(
        format_proof(pieces, session.term_names),
        session.k,
        session.hypotheses,
        session.class_of,
        session.equalities,
        ids=session.terms.term_ids,
    )


def identity_partition(n_terms):
    return {i: i for i in range(n_terms)}


def random_partition(rng, n_terms):
    """Class map with a few merged groups (possibly-equal terms)."""
    class_of = identity_partition(n_terms)
    for _ in range(rng.randint(1, max(1, n_terms // 2))):
        if n_terms < 2:
            break
        a, b = rng.sample(range(n_terms), 2)
        ca, cb = class_of[a], class_of[b]
        if ca != cb:
            for t, c in class_of.items():
                if c == cb:
                    class_of[t] = ca
    return class_of


def random_instance(rng, k, max_terms=8, max_hyps=6, partitioned=False):
    """(n_terms, hypotheses, class_of) biased toward overlapping facts."""
    n_terms = rng.randint(k + 1, max_terms)
    pool = rng.sample(range(n_terms), min(n_terms, k + 1 + rng.randint(1, 2)))
    hyps = []
    for _ in range(rng.randint(0, max_hyps)):
        src = pool if rng.random() < 0.7 else list(range(n_terms))
        if rng.random() < 0.15 or len(src) < k + 1:
            xs = tuple(rng.choice(src) for _ in range(k + 1))
        else:
            xs = tuple(rng.sample(src, k + 1))
        hyps.append(xs)
    if partitioned:
        class_of = random_partition(rng, n_terms)
    else:
        class_of = identity_partition(n_terms)
    return n_terms, hyps, class_of


def build_session(k, n_terms, hyps, class_of=None):
    s = Session(k, partition=class_of)
    for i in range(n_terms):
        s.intern_term(f"t{i}")
    for h in hyps:
        s.assert_hypothesis(h)
    return s


def run_differential(k, n_terms, hyps, class_of, proof_sink=None):
    """Compare the engine against the saturation oracle on all atom queries.

    Returns the list of mismatching queries (empty means agreement).  Every
    proof the engine emits is checked; `proof_sink` collects (proof text,
    conclusion, session) triples for further abuse.
    """
    s = build_session(k, n_terms, hyps, class_of)
    family = closure_sets(k, hyps, class_of)
    mismatches = []
    for combo in itertools.combinations(range(n_terms), k + 1):
        proof = s.resolve_query(combo)
        expected = covered(k, combo, family)
        if (proof is not None) != expected:
            mismatches.append(combo)
        if proof is not None:
            conclusion = check_text(proof, s)
            assert conclusion == frozenset(combo)
            if proof_sink is not None:
                proof_sink.append((format_proof(proof, s.term_names), conclusion, s))
    s.validate()
    return mismatches


def blocks(class_of):
    """The partition that a class map's labels draw, as sorted id lists."""
    by_class = {}
    for t, c in class_of.items():
        by_class.setdefault(c, set()).add(t)
    return sorted(sorted(b) for b in by_class.values())


def class_groups(class_of):
    by_class = {}
    for t, c in class_of.items():
        by_class.setdefault(c, []).append(t)
    return [sorted(g) for g in by_class.values() if len(g) >= 2]


def random_congruence_instance(rng, k, max_terms=8, max_statements=7):
    """(n_terms, class_of, statements) mixing atoms and legal equalities."""
    n_terms = rng.randint(k + 1, max_terms)
    class_of = random_partition(rng, n_terms)
    groups = class_groups(class_of)
    pool = rng.sample(range(n_terms), min(n_terms, k + 1 + rng.randint(1, 2)))
    statements = []
    for _ in range(rng.randint(1, max_statements)):
        if groups and rng.random() < 0.35:
            a, b = rng.sample(rng.choice(groups), 2)
            statements.append(("eq", (a, b)))
            continue
        src = pool if rng.random() < 0.7 else list(range(n_terms))
        if rng.random() < 0.15 or len(src) < k + 1:
            xs = tuple(rng.choice(src) for _ in range(k + 1))
        else:
            xs = tuple(rng.sample(src, k + 1))
        statements.append(("atom", xs))
    return n_terms, class_of, statements


def build_congruence(k, n_terms, class_of, statements, relation="r"):
    state = CongruenceState({relation: k})
    for i in range(n_terms):
        state.intern_term(f"t{i}")
    for group in class_groups(class_of):
        state.mark_possibly_equal(group)
    for kind, payload in statements:
        if kind == "eq":
            state.assert_eq(*payload)
        else:
            state.assert_atom(relation, payload)
    return state


def run_congruence_differential(k, n_terms, class_of, statements, proof_sink=None):
    """Compare congruence-layer verdicts with the substitution oracle.

    The oracle sees the atoms and the query with every term rewritten to
    its final representative.  Returns mismatching queries; every proof
    is checked, and `proof_sink` collects as `run_differential`.
    """
    state = build_congruence(k, n_terms, class_of, statements)
    session = state.sessions["r"]
    find = state.equalities.find
    rewritten_hyps = [
        tuple(find(t) for t in payload)
        for kind, payload in statements
        if kind == "atom"
    ]
    family = closure_sets(k, rewritten_hyps, class_of)
    mismatches = []
    for combo in itertools.combinations(range(n_terms), k + 1):
        proof = state.query_atom("r", combo)
        canon = {find(t) for t in combo}
        expected = covered(k, canon, family)
        if (proof is not None) != expected:
            mismatches.append(combo)
        if proof is not None:
            conclusion = check_text(proof, session)
            assert conclusion == frozenset(canon)
            if proof_sink is not None:
                text = format_proof(proof, state.term_names)
                proof_sink.append((text, conclusion, session))
    session.validate()
    return mismatches


class DisjointSet:
    """Minimal union-find, independent of the library (k=1 reference)."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def equality_path(n_terms, equalities, frm, to):
    """Reference BFS: the (old, new, index) steps from `frm` to `to`.

    Searches only the equalities that merged two classes when asserted in
    order, which form a forest, so the path is unique.
    """
    ds = DisjointSet(n_terms)
    adjacent = {}
    for e, (a, b) in enumerate(equalities):
        if ds.find(a) != ds.find(b):
            ds.union(a, b)
            adjacent.setdefault(a, []).append((b, e))
            adjacent.setdefault(b, []).append((a, e))
    prev = {frm: None}
    queue = [frm]
    for u in queue:
        for v, e in adjacent.get(u, ()):
            if v not in prev:
                prev[v] = (u, e)
                queue.append(v)
    path = []
    node = to
    while prev[node] is not None:
        u, e = prev[node]
        path.append((u, node, e))
        node = u
    return path[::-1]


def _nodes(text):
    """Each node of canonical proof text, outermost first, as [start, end,
    head, atoms, children]: its span text[start:end], its constructor, its
    atoms after the head, and its sub-proofs' nodes."""
    out = []
    stack = []
    for m in re.finditer(r"[()]|[^\s()]+", text):
        token = m.group()
        if token == "(":
            node = [m.start(), None, None, [], []]
            if stack:
                stack[-1][4].append(node)
            stack.append(node)
            out.append(node)
        elif token == ")":
            stack.pop()[1] = m.end()
        elif stack[-1][2] is None:
            stack[-1][2] = token
        else:
            stack[-1][3].append(token)
    return out


def mutate_proof(rng, text, conclusion, session):
    """One random single-node mutation of proof `text` that must be
    rejected by a law or change the root conclusion.

    Returns (mutant text, ids), where `ids` is the session's name -> id
    map plus the fresh names the mutant may cite, each a term no
    hypothesis or equality mentions, so that no mutant is refused for an
    unknown name.
    """
    ids = dict(session.terms.term_ids)
    fresh = []
    for j in range(session.k + 1):
        name = f"fresh{j}"
        assert name not in ids
        ids[name] = len(session.term_names) + j
        fresh.append(name)
    start, end, head, atoms, children = rng.choice(_nodes(text))
    root = start == 0

    def replace(node):
        return text[:start] + node + text[end:], ids

    if head == "assume":
        if root:
            # in-range retarget only when the conclusion visibly changes
            others = [
                j
                for j, h in enumerate(session.hypotheses)
                if frozenset(h) != conclusion
            ]
            if others and rng.random() < 0.5:
                return replace(f"(assume {rng.choice(others)})")
        return replace(f"(assume {len(session.hypotheses) + 7})")
    if head == "subrefl":
        grown = atoms + fresh[: session.k + 1 - len(atoms)]
        return replace("(subrefl " + " ".join(grown) + ")")
    inner = [text[child[0] : child[1]] for child in children]
    if head == "trans":
        # a foreign singleton shares nothing with the sibling conclusion
        inner[rng.randrange(2)] = f"(subrefl {rng.choice(fresh)})"
        return replace("(trans " + " ".join(inner) + ")")
    if head == "project":
        terms = list(atoms)
        if root and len(terms) > 1 and rng.random() < 0.5:
            terms.remove(rng.choice(terms))
        else:
            terms.append(rng.choice(fresh))
        return replace("(project " + " ".join(inner + terms) + ")")
    assert head == "subst", head
    frm, to, _ = atoms
    bad = [
        e
        for e, pair in enumerate(session.equalities)
        if set(pair) != {ids[frm], ids[to]}
    ]
    e = rng.choice(bad) if bad else len(session.equalities) + 3
    return replace(f"(subst {inner[0]} {frm} {to} {e})")


# Workload shapes for growth checks.  Each builder interns the terms of one
# shape of size n and returns (session, steps): running every `fn(arg)` of
# `steps` asserts the shape, and `session` is the engine session it fills.
# `scripts/ladder.py` times the steps; the engine tests count registrations.


def chain_shape(n):
    """One line of n overlapping in-order triples (p_i p_i+1 p_i+2)."""
    s = Session(2)
    p = [s.intern_term(f"p{i}") for i in range(n + 2)]
    return s, [(s.assert_hypothesis, p[i : i + 3]) for i in range(n)]


def pencil_shape(n):
    """n lines (h a_j b_j) through one hub h."""
    s = Session(2)
    h = s.intern_term("h")
    steps = []
    for j in range(n):
        a, b = s.intern_term(f"a{j}"), s.intern_term(f"b{j}")
        steps.append((s.assert_hypothesis, [h, a, b]))
    return s, steps


def k_chain_shape(n, k):
    """One line of n overlapping in-order (k+1)-tuples (p_i ... p_i+k);
    at k = 2 the hypotheses of `chain_shape(n)`."""
    s = Session(k)
    p = [s.intern_term(f"p{i}") for i in range(n + k)]
    return s, [(s.assert_hypothesis, p[i : i + k + 1]) for i in range(n)]


def k_pencil_shape(n, k):
    """n lines (h_1 ... h_k-1 a_j b_j) through k-1 shared hubs, which no
    two lines share enough of to fuse; at k = 2 the hypotheses of
    `pencil_shape(n)`, by term id."""
    s = Session(k)
    hubs = [s.intern_term(f"h{i}") for i in range(1, k)]
    steps = []
    for j in range(n):
        a, b = s.intern_term(f"a{j}"), s.intern_term(f"b{j}")
        steps.append((s.assert_hypothesis, [*hubs, a, b]))
    return s, steps


def pencil_closed_shape(n):
    """n lines through one hub, each asserted as (h a_j b_j) then (a_j b_j c_j)."""
    s = Session(2)
    h = s.intern_term("h")
    steps = []
    for j in range(n):
        a, b, c = (s.intern_term(f"{x}{j}") for x in "abc")
        steps += [(s.assert_hypothesis, [h, a, b]), (s.assert_hypothesis, [a, b, c])]
    return s, steps


def two_pencils_shape(n):
    """Two pencils and the line joining their hubs: n lines (h a_j b_j)
    through hub h, n lines (g c_j d_j) through hub g, then n hypotheses
    (h g x_i).  Each of those last reads a hub's whole parent list, so
    their asserts take time quadratic in n."""
    s = Session(2)
    h, g = s.intern_term("h"), s.intern_term("g")
    steps = []
    for hub, ends in ((h, "ab"), (g, "cd")):
        for j in range(n):
            a, b = (s.intern_term(f"{e}{j}") for e in ends)
            steps.append((s.assert_hypothesis, [hub, a, b]))
    steps += [(s.assert_hypothesis, [h, g, s.intern_term(f"x{i}")]) for i in range(n)]
    return s, steps


def short_lines_shape(n, k):
    """n lines of 8 terms, each covered by its (k+1)-term windows.

    The windows of all lines are asserted in one seeded shuffled order:
    the shape of kqbench's many-lines workload, where most merges absorb
    a fresh (k+1)-term hypothesis into a short line.
    """
    s = Session(k)
    steps = []
    for j in range(n):
        line = [s.intern_term(f"l{j}_{i}") for i in range(8)]
        steps += [(s.assert_hypothesis, line[i : i + k + 1]) for i in range(8 - k)]
    random.Random(f"short-lines/{n}/{k}").shuffle(steps)
    return s, steps


def _eq_chain(n):
    """The eq-chain's session, its hypothesis steps and its `eq` steps."""
    state = CongruenceState({"coll": 2})
    q = [state.intern_term(f"q{i}") for i in range(n)]
    x = [state.intern_term(f"x{i}") for i in range(n)]
    z = state.intern_term("z")
    state.mark_possibly_equal(q)
    hyps = [
        (lambda xs: state.assert_atom("coll", xs), [q[i], z, x[i]]) for i in range(n)
    ]
    eqs = [
        (lambda pair: state.assert_eq(*pair), (q[i - 1], q[i])) for i in range(1, n)
    ]
    return state.sessions["coll"], hyps, eqs


def eq_chain_shape(n):
    """Lines (q_i z x_i) that become one line through eq q_i-1 q_i."""
    session, hyps, eqs = _eq_chain(n)
    steps = hyps[:1]
    for hyp, eq in zip(hyps[1:], eqs):
        steps += [hyp, eq]
    return session, steps


def eq_first_shape(n):
    """The eq-chain with every `eq` asserted first, so that each hypothesis
    (q_i z x_i) is renamed to (q_0 z x_i) as it is asserted."""
    session, hyps, eqs = _eq_chain(n)
    return session, eqs + hyps


def eq_balanced_shape(n):
    """The eq-chain's terms joined in balanced pairs, the worst case for a
    union that relabels the smaller class: q_0..q_n-1 marked possibly
    equal pair by pair, (q0 q1), (q2 q3), ..., then (q0 q2), ..., then
    the lines (q_i z x_i), then the same pairs equated, which ends in
    one line."""
    state = CongruenceState({"coll": 2})
    q = [state.intern_term(f"q{i}") for i in range(n)]
    x = [state.intern_term(f"x{i}") for i in range(n)]
    z = state.intern_term("z")
    pairs, width = [], 1
    while width < n:
        pairs += [(q[i], q[i + width]) for i in range(0, n - width, 2 * width)]
        width *= 2
    steps = [(state.mark_possibly_equal, pair) for pair in pairs]
    steps += [
        (lambda xs: state.assert_atom("coll", xs), [q[i], z, x[i]]) for i in range(n)
    ]
    steps += [(lambda pair: state.assert_eq(*pair), pair) for pair in pairs]
    return state.sessions["coll"], steps


# The same shapes as problem files, each with one entailed and one
# not-entailed query: for the command-line tests and the end-to-end rung
# of `scripts/ladder.py`.


def chain_text(n):
    lines = [f"hyp coll p{i} p{i + 1} p{i + 2}" for i in range(n)]
    return _problem(lines, [f"p0 p1 p{n + 1}", "p0 p1 w"])


def pencil_closed_text(n):
    lines = []
    for j in range(n):
        lines += [f"hyp coll h a{j} b{j}", f"hyp coll a{j} b{j} c{j}"]
    return _problem(lines, ["h a0 c0", "h a0 c1"])


def short_lines_text(n, k=2):
    """`short_lines_shape(n, k)` as a problem file, its windows in the
    same shuffled order.  Each line is queried once by one of its
    windows, which one hypothesis proves, and each pair of neighbouring
    lines once by k terms of the first and one of the second (not
    entailed), so that, as on kqbench's many-lines, reading the file
    costs more than judging the proofs."""
    windows = []
    queries = []
    for j in range(n):
        line = [f"l{j}_{i}" for i in range(8)]
        windows += [line[i : i + k + 1] for i in range(8 - k)]
        queries.append(line[3 : 4 + k])
        if j + 1 < n:
            queries.append(line[:k] + [f"l{j + 1}_0"])
    random.Random(f"short-lines/{n}/{k}").shuffle(windows)
    rel = relation_name_for(k)
    lines = [f"rel {rel} {k}"]
    lines += [f"hyp {rel} " + " ".join(w) for w in windows]
    lines += [f"query {rel} " + " ".join(q) for q in queries]
    return "".join(line + "\n" for line in lines)


def many_lines_text(n):
    """kqbench's many-lines at small n: for k = 1, 2 and 3, n lines of 8
    terms covered by their (k+1)-term windows, `class` pairs joining terms
    of two lines, every window of the file in one seeded shuffled order.
    Per relation, each line is queried once by k+1 of its terms spread
    along it, whose proof walks the line's merges, and n times by k+1
    random terms."""
    rng = random.Random(f"many-lines-text/{n}")
    lines, windows, queries = [], [], []
    for k in (1, 2, 3):
        rel = relation_name_for(k)
        lines.append(f"rel {rel} {k}")
        chunks = [[f"{rel[:2]}{j}_{i}" for i in range(8)] for j in range(n)]
        for chunk in chunks:
            windows += [["hyp", rel, *chunk[i : i + k + 1]] for i in range(8 - k)]
            queries.append(["query", rel, *sorted(rng.sample(chunk, k + 1))])
        for _ in range(n // 4):
            first, second = rng.sample(chunks, 2)
            lines.append(f"class {rng.choice(first)} {rng.choice(second)}")
        terms = [t for chunk in chunks for t in chunk]
        queries += [["query", rel, *rng.sample(terms, k + 1)] for _ in range(n)]
    rng.shuffle(windows)
    rng.shuffle(queries)
    lines += [" ".join(words) for words in windows + queries]
    return "".join(line + "\n" for line in lines)


def eq_chain_text(n):
    lines = ["class " + " ".join(f"q{i}" for i in range(n))]
    for i in range(n):
        lines.append(f"hyp coll q{i} z x{i}")
        if i:
            lines.append(f"eq q{i - 1} q{i}")
    return _problem(lines, [f"z x0 x{n - 1}", "x0 x1 w"])


def eq_chain_check_text(n):
    """`eq_chain_text` with two more queries that name members of the q
    class, so their proofs name the class's representative (n >= 2)."""
    return eq_chain_text(n) + (
        f"query coll q{n - 1} x0 x{n // 2}\nquery coll q0 q{n // 2} z x1\n"
    )


def eq_chain_shared_text(n):
    """`eq_chain_text` with n // 10 more queries (q_i x_j z), each naming a
    member of the q class, whose proofs rewrite q_i along the chain of
    equalities: most of their `subst` steps recur in other lines."""
    return eq_chain_text(n) + "".join(
        f"query coll q{i} x{(7 * i + 1) % n} z\n" for i in range(0, n, 10)
    )


def eq_first_text(n):
    """`eq_chain_text` with every `eq` first, as in `eq_first_shape`."""
    lines = ["class " + " ".join(f"q{i}" for i in range(n))]
    lines += [f"eq q{i - 1} q{i}" for i in range(1, n)]
    lines += [f"hyp coll q{i} z x{i}" for i in range(n)]
    return _problem(lines, [f"z x0 x{n - 1}", "x0 x1 w"])


def _problem(lines, queries):
    lines = ["rel coll 2", *lines, *(f"query coll {q}" for q in queries)]
    return "".join(line + "\n" for line in lines)
