"""Problem files: parsing, interning, and random instance generation.

The text format is line oriented, UTF-8, with `#` comments:

    rel <name> <k>              declare a relation of arity k+1
    class <t1> <t2> ...         these terms are possibly equal
    hyp <rel> <t1> ... <t_k+1>  assert an atom
    eq <t1> <t2>                assert a term equality
    query <rel> <t1> ... <tm>   ask about any number of terms

Class statements apply file-wide (the distinctness partition is fixed
before any fact), hypotheses and equalities keep file order, and queries
are answered against the final state.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .engine import TermTable

__all__ = [
    "Atom",
    "Equality",
    "Query",
    "Problem",
    "ParseError",
    "parse_text",
    "parse_path",
    "InternedProblem",
    "intern_problem",
    "generate",
    "relation_name_for",
]

_NAME = re.compile(r"^[^()#\s]+$")


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class Equality:
    a: str
    b: str
    line: int


@dataclass(frozen=True)
class Query:
    relation: str
    terms: tuple[str, ...]
    line: int


@dataclass
class Problem:
    relations: dict[str, int] = field(default_factory=dict)
    classes: list[tuple[str, ...]] = field(default_factory=list)
    statements: list[Atom | Equality] = field(default_factory=list)
    queries: list[Query] = field(default_factory=list)
    term_order: list[str] = field(default_factory=list)

    @property
    def atoms(self) -> list[Atom]:
        return [s for s in self.statements if isinstance(s, Atom)]

    @property
    def equalities(self) -> list[Equality]:
        return [s for s in self.statements if isinstance(s, Equality)]


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, col {column}: {message}")


def _line_tokens(line: str) -> list[tuple[str, int]]:
    code = line.split("#", 1)[0]
    tokens = []
    for m in re.finditer(r"\S+", code):
        tokens.append((m.group(), m.start() + 1))
    return tokens


def parse_text(text: str) -> Problem:
    problem = Problem()
    seen_terms: set[str] = set()

    def term(tok: str, lineno: int, col: int) -> str:
        if not _NAME.match(tok):
            raise ParseError(lineno, col, f"invalid term name {tok!r}")
        if tok not in seen_terms:
            seen_terms.add(tok)
            problem.term_order.append(tok)
        return tok

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _line_tokens(raw)
        if not tokens:
            continue
        head, head_col = tokens[0]
        args = tokens[1:]
        if head == "rel":
            if len(args) != 2:
                raise ParseError(lineno, head_col, "rel needs a name and an arity")
            (name, ncol), (kstr, kcol) = args
            if not _NAME.match(name):
                raise ParseError(lineno, ncol, f"invalid relation name {name!r}")
            if name in problem.relations:
                raise ParseError(lineno, ncol, f"relation {name!r} already declared")
            try:
                k = int(kstr)
            except ValueError:
                k = 0
            if k < 1:
                raise ParseError(lineno, kcol, f"k must be a positive integer, got {kstr!r}")
            problem.relations[name] = k
        elif head == "class":
            if len(args) < 2:
                raise ParseError(lineno, head_col, "class needs at least two terms")
            problem.classes.append(
                tuple(term(t, lineno, c) for t, c in args)
            )
        elif head == "hyp":
            if not args:
                raise ParseError(lineno, head_col, "hyp needs a relation name")
            rel, rcol = args[0]
            k = problem.relations.get(rel)
            if k is None:
                raise ParseError(lineno, rcol, f"unknown relation {rel!r}")
            terms = args[1:]
            if len(terms) != k + 1:
                raise ParseError(
                    lineno,
                    rcol,
                    f"relation {rel!r} takes {k + 1} terms, got {len(terms)}",
                )
            problem.statements.append(
                Atom(rel, tuple(term(t, lineno, c) for t, c in terms), lineno)
            )
        elif head == "eq":
            if len(args) != 2:
                raise ParseError(lineno, head_col, "eq needs exactly two terms")
            (a, acol), (b, bcol) = args
            problem.statements.append(
                Equality(term(a, lineno, acol), term(b, lineno, bcol), lineno)
            )
        elif head == "query":
            if not args:
                raise ParseError(lineno, head_col, "query needs a relation name")
            rel, rcol = args[0]
            if rel not in problem.relations:
                raise ParseError(lineno, rcol, f"unknown relation {rel!r}")
            terms = args[1:]
            if not terms:
                raise ParseError(lineno, rcol, "query needs at least one term")
            problem.queries.append(
                Query(rel, tuple(term(t, lineno, c) for t, c in terms), lineno)
            )
        else:
            raise ParseError(lineno, head_col, f"unknown statement {head!r}")
    return problem


def parse_path(path: str) -> Problem:
    with open(path, encoding="utf-8") as f:
        return parse_text(f.read())


@dataclass
class InternedProblem:
    """A problem with names resolved to dense ids, engine independent."""

    relations: dict[str, int]
    term_names: list[str]
    term_ids: dict[str, int]
    class_of: dict[int, int]
    atoms: list[tuple[str, tuple[int, ...]]]
    equalities: list[tuple[int, int]]
    queries: list[tuple[str, tuple[int, ...]]]


def intern_problem(problem: Problem) -> InternedProblem:
    table = TermTable()
    for name in problem.term_order:
        table.intern_term(name)
    for group in problem.classes:
        table.mark_possibly_equal([table.term_ids[t] for t in group])
    term_ids = table.term_ids
    atoms = []
    equalities = []
    for st in problem.statements:
        if isinstance(st, Atom):
            atoms.append((st.relation, tuple(term_ids[t] for t in st.terms)))
        else:
            equalities.append((term_ids[st.a], term_ids[st.b]))
    queries = [
        (q.relation, tuple(term_ids[t] for t in q.terms)) for q in problem.queries
    ]
    return InternedProblem(
        relations=dict(problem.relations),
        term_names=table.term_names,
        term_ids=term_ids,
        class_of=table.class_of,
        atoms=atoms,
        equalities=equalities,
        queries=queries,
    )


def relation_name_for(k: int) -> str:
    return {1: "equiv", 2: "coll", 3: "cycl"}.get(k, f"rel{k}")


def generate(
    k: int,
    terms: int,
    lines: int,
    seed: int,
    partition_rate: float = 0.0,
) -> str:
    """Produce a reproducible random problem file as text.

    Plants `lines` ground-truth term groups, covers each with a chain of
    overlapping hypotheses (so a fully covered group is derivably one
    object), then samples queries half inside a group and half across the
    whole universe.  `partition_rate` controls how many term pairs are
    declared possibly equal.  A fixed seed yields identical bytes.
    """
    if k < 1 or lines < 1 or terms < lines * (k + 1):
        raise ValueError(
            f"infeasible parameters: need terms >= lines*(k+1), got "
            f"k={k} terms={terms} lines={lines}"
        )
    if not 0.0 <= partition_rate <= 1.0:
        raise ValueError("partition_rate must be within [0, 1]")
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(terms)]
    shuffled = names[:]
    rng.shuffle(shuffled)

    base, extra = divmod(terms, lines)
    chunks: list[list[str]] = []
    start = 0
    for i in range(lines):
        size = base + (1 if i < extra else 0)
        chunks.append(shuffled[start : start + size])
        start += size

    hyps: list[list[str]] = []
    for chunk in chunks:
        for i in range(len(chunk) - k):
            hyps.append(chunk[i : i + k + 1])
    rng.shuffle(hyps)

    n_pairs = int(partition_rate * terms / 2)
    pool = names[:]
    rng.shuffle(pool)
    class_groups = [
        (pool[2 * i], pool[2 * i + 1]) for i in range(min(n_pairs, terms // 2))
    ]

    n_queries = max(4, 2 * lines)
    queries: list[list[str]] = []
    for i in range(n_queries):
        if i % 2 == 0:
            chunk = rng.choice(chunks)
            queries.append(rng.sample(chunk, k + 1))
        else:
            queries.append(rng.sample(names, k + 1))

    rel = relation_name_for(k)
    out = [f"# random instance: k={k} terms={terms} lines={lines} seed={seed}"]
    out.append(f"rel {rel} {k}")
    for group in class_groups:
        out.append("class " + " ".join(group))
    for h in hyps:
        out.append(f"hyp {rel} " + " ".join(h))
    for q in queries:
        out.append(f"query {rel} " + " ".join(q))
    return "\n".join(out) + "\n"
