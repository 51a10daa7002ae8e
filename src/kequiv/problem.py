"""Problem files: parsing, interning, and random instance generation.

The text format is line oriented, UTF-8, with `#` comments:

    rel <name> <k>              declare a relation of arity k+1
    class <t1> <t2> ...         these terms are possibly equal
    hyp <rel> <t1> ... <t_k+1>  assert an atom
    eq <t1> <t2>                assert a term equality
    query <rel> <t1> ... <tm>   ask about any number of terms

Class statements apply file-wide (the distinctness partition is fixed
before any fact), hypotheses and equalities keep file order, and queries
are answered against the final state.  Term names are numbered 0, 1, ...
in the order they are first seen.  A name is a token without '(', ')' or
'#', so names are checked only in a text that holds '(' or ')'.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import islice, repeat

from .proofs import numeral

__all__ = [
    "Atom",
    "Equality",
    "Query",
    "Problem",
    "ParseError",
    "parse_text",
    "parse_path",
    "split_lines",
    "InternedProblem",
    "intern_problem",
    "find",
    "union",
    "generate",
    "relation_name_for",
    "MAX_TERM_SLOTS",
]

_NAME = re.compile(r"^[^()#\s]+$")
# bounds the term names a generated file holds in its hyp and query lines
# plus the name list, so a large --terms or k is refused before allocating
MAX_TERM_SLOTS = 10**7


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple[str, ...]


@dataclass(frozen=True)
class Equality:
    a: str
    b: str


@dataclass(frozen=True)
class Query:
    relation: str
    terms: tuple[str, ...]


@dataclass
class Problem:
    """A problem file read into term ids.

    Term id i names `term_order[i]`, ids numbered in first-seen order, and
    `term_ids` maps each name back to its id.  The `hyp` and `eq` lines
    are kept in file order in two parallel lists: `fact_relations` holds a
    hypothesis's relation, None for an equality, and `fact_ids` its term
    ids, (a, b) for an equality.  `query_ids` holds the queries as
    (relation, ids) and `class_ids` the `class` lines as id tuples.  Every
    relation name stored is the `relations` key itself, one string per
    relation.

    `facts` is the two fact lists zipped, as (relation, ids) pairs;
    `statements`, `queries` and `classes` are the lines by name, as
    `Atom`/`Equality`, `Query` and name tuples.  These views are
    read-only, built on each read; `kequiv solve` and `kequiv check` never
    read them.
    """

    relations: dict[str, int] = field(default_factory=dict)
    term_order: list[str] = field(default_factory=list)
    term_ids: dict[str, int] = field(default_factory=dict)
    fact_relations: list[str | None] = field(default_factory=list)
    fact_ids: list[tuple[int, ...]] = field(default_factory=list)
    query_ids: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    class_ids: list[tuple[int, ...]] = field(default_factory=list)

    def _names(self, xs: tuple[int, ...]) -> tuple[str, ...]:
        names = self.term_order
        return tuple([names[x] for x in xs])

    @property
    def facts(self) -> list[tuple[str | None, tuple[int, ...]]]:
        return list(zip(self.fact_relations, self.fact_ids))

    @property
    def statements(self) -> list[Atom | Equality]:
        names = self._names
        return [
            Equality(*names(xs)) if rel is None else Atom(rel, names(xs))
            for rel, xs in zip(self.fact_relations, self.fact_ids)
        ]

    @property
    def queries(self) -> list[Query]:
        return [Query(rel, self._names(xs)) for rel, xs in self.query_ids]

    @property
    def classes(self) -> list[tuple[str, ...]]:
        return list(map(self._names, self.class_ids))


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, col {column}: {message}")


def split_lines(text: str) -> list[str]:
    r"""The lines of `text`, broken at "\n", "\r\n" and "\r" only.

    Unlike `str.splitlines`, a form feed, a file separator or U+2028
    stays inside its line, where it separates tokens like any other
    whitespace.  A break at the very end ends the last line; it does not
    start an empty one.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_text(text: str) -> Problem:
    """Read problem text into term ids, in one pass (see `Problem`).

    Each line's shape is checked first; then its term names are numbered
    by `term_ids.setdefault(name, len(term_ids))`, mapped over the line,
    which gives a new name the table's size as its id.  A token holds no
    whitespace or '#', so a text without '(' or ')' holds no invalid name;
    in one with either, every line's names are checked before numbering.
    """
    problem = Problem()
    relations = problem.relations
    fact_relations, fact_ids = problem.fact_relations, problem.fact_ids
    query_ids = problem.query_ids
    # each declared relation's name and k, the name the `relations` key, so
    # that every line stores that one string, not a copy of its own
    declared: dict[str, tuple[str, int]] = {}
    # each term name's id, numbered in first-seen order
    term_ids = problem.term_ids
    number = term_ids.setdefault

    # `error` reads the line being parsed (`lineno`, `code`).  Tokens are
    # referred to by index; a column is found only to raise.
    def error(j: int, message: str) -> ParseError:
        m = next(islice(re.finditer(r"\S+", code), j, None))
        return ParseError(lineno, m.start() + 1, message)

    checked = "(" in text or ")" in text
    # an endless feed of the table's size, shared by every line: `map`
    # fetches its arguments in order, one call at a time, so each size is
    # read after the name before it was numbered
    sizes = map(len, repeat(term_ids))

    for lineno, raw in enumerate(split_lines(text), start=1):
        code = raw.split("#", 1)[0] if "#" in raw else raw
        tokens = code.split()
        if not tokens:
            continue
        # a statement with term names says where they start (`first`) and
        # which list keeps its ids (`out`): a fact's beside its relation, a
        # query's as (rel, ids)
        head, nargs = tokens[0], len(tokens) - 1
        if head == "hyp":
            if not nargs:
                raise error(0, "hyp needs a relation name")
            entry = declared.get(tokens[1])
            if entry is None:
                raise error(1, f"unknown relation {tokens[1]!r}")
            rel, k = entry
            if nargs - 1 != k + 1:
                raise error(1, f"relation {rel!r} takes {k + 1} terms, got {nargs - 1}")
            first, out = 2, fact_ids
        elif head == "eq":
            if nargs != 2:
                raise error(0, "eq needs exactly two terms")
            first, out, rel = 1, fact_ids, None
        elif head == "query":
            if not nargs:
                raise error(0, "query needs a relation name")
            entry = declared.get(tokens[1])
            if entry is None:
                raise error(1, f"unknown relation {tokens[1]!r}")
            if nargs == 1:
                raise error(1, "query needs at least one term")
            first, out, rel = 2, query_ids, entry[0]
        elif head == "class":
            if nargs < 2:
                raise error(0, "class needs at least two terms")
            first, out = 1, problem.class_ids
        elif head == "rel":
            if nargs != 2:
                raise error(0, "rel needs a name and an arity")
            _, name, kstr = tokens
            if not _NAME.match(name):
                raise error(1, f"invalid relation name {name!r}")
            if name in relations:
                raise error(1, f"relation {name!r} already declared")
            try:
                k = numeral(kstr)
            except ValueError:
                k = 0
            if k < 1:
                raise error(2, f"k must be a positive integer, got {kstr!r}")
            relations[name] = k
            declared[name] = name, k
            continue
        else:
            raise error(0, f"unknown statement {head!r}")
        if checked:
            for j in range(first, len(tokens)):
                if not _NAME.match(tokens[j]):
                    raise error(j, f"invalid term name {tokens[j]!r}")
        # one C-level call per name: `kequiv check` on kqbench's many-lines
        # ran faster than with `[number(name, len(term_ids)) for ...]`; via
        # a list, as `tuple(map(...))` shrinks a larger tuple and raised peak
        xs = tuple([*map(number, tokens[first:], sizes)])
        if out is fact_ids:
            fact_relations.append(rel)
        out.append((rel, xs) if out is query_ids else xs)
    problem.term_order = list(term_ids)
    return problem


def parse_path(path: str) -> Problem:
    with open(path, encoding="utf-8-sig") as f:
        return parse_text(f.read())


@dataclass
class InternedProblem:
    """A problem with names resolved to dense ids, engine independent.

    `term_names` and `term_ids` are the problem's own `term_order` and
    `term_ids`, not copies.  `class_of` labels each class by a root of the
    checker's own `union`, not the engine's: only its blocks mean anything.
    """

    relations: dict[str, int]
    term_names: list[str]
    term_ids: dict[str, int]
    class_of: dict[int, int]
    atoms: list[tuple[str, tuple[int, ...]]]
    equalities: list[tuple[int, int]]
    queries: list[tuple[str, tuple[int, ...]]]


def find(parent: dict[int, int], x: int) -> int:
    """x's root in the union-find forest `parent`, halving the path; a
    term absent from `parent`, or its own parent, is a root."""
    while (p := parent.get(x, x)) != x:
        parent[x] = x = parent.get(p, p)
    return x


def union(parent: dict[int, int], a: int, b: int) -> None:
    """Join the blocks of a and b in the forest `parent`; a's root stays."""
    parent[find(parent, b)] = find(parent, a)


def intern_problem(problem: Problem) -> InternedProblem:
    """Split the problem's facts and group its `class` lines, with no
    engine code; only the terms that `class` lines name are relabelled."""
    ids, groups = problem.term_ids.values(), problem.class_ids
    class_of = dict(zip(ids, ids))
    for group in groups:
        for t in group[1:]:
            union(class_of, group[0], t)
    class_of.update((t, find(class_of, t)) for group in groups for t in group)
    rels, facts = problem.fact_relations, problem.fact_ids
    return InternedProblem(
        relations=dict(problem.relations),
        term_names=problem.term_order,
        term_ids=problem.term_ids,
        class_of=class_of,
        atoms=[(rel, xs) for rel, xs in zip(rels, facts) if rel is not None],
        equalities=[xs for rel, xs in zip(rels, facts) if rel is None],
        queries=list(problem.query_ids),
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
    if k < 1:
        raise ValueError(f"infeasible parameters: need k >= 1, got k={k}")
    if lines < 1:
        raise ValueError(f"infeasible parameters: need lines >= 1, got lines={lines}")
    if terms < lines * (k + 1):
        raise ValueError(
            f"infeasible parameters: need terms >= lines*(k+1), got "
            f"k={k} terms={terms} lines={lines}"
        )
    if not 0.0 <= partition_rate <= 1.0:
        raise ValueError("partition_rate must be within [0, 1]")
    base, extra = divmod(terms, lines)
    hyp_slots = (
        extra * max(0, base + 1 - k) + (lines - extra) * max(0, base - k)
    ) * (k + 1)
    slots = hyp_slots + max(4, 2 * lines) * (k + 1) + terms
    if slots > MAX_TERM_SLOTS:
        raise ValueError(
            f"the file would hold {slots} term names, over {MAX_TERM_SLOTS}"
        )
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(terms)]
    shuffled = names[:]
    rng.shuffle(shuffled)

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
