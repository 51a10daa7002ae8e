import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from kequiv import (
    CongruenceState,
    Equalities,
    ParseError,
    Session,
    generate,
    intern_problem,
    oracle_entailed,
    parse_text,
)
from kequiv.engine import TermTable
from kequiv.problem import Atom, Equality, InternedProblem, Query, find, union
from helpers import DisjointSet, blocks

EXAMPLE = """\
# five collinearity facts over seven points
rel coll 2
hyp coll a b c
hyp coll c d e
hyp coll e f g
hyp coll a d g
hyp coll b c d
query coll a b d
"""


def test_example_file_parses():
    problem = parse_text(EXAMPLE)
    assert problem.relations == {"coll": 2}
    assert sum(isinstance(s, Atom) for s in problem.statements) == 5
    assert len(problem.queries) == 1
    assert problem.term_order == list("abcdefg")


def test_empty_file():
    problem = parse_text("")
    assert problem.relations == {}
    assert problem.queries == []


def test_comments_and_blank_lines_ignored():
    problem = parse_text("\n# nothing\n   \nrel coll 2  # trailing\n")
    assert problem.relations == {"coll": 2}


def test_interning_collapses_classes():
    problem = parse_text(
        "rel coll 2\nclass a b\nclass b c\nhyp coll a c d\n"
    )
    interned = intern_problem(problem)
    cls = interned.class_of
    a, b, c, d = (interned.term_ids[t] for t in "abcd")
    assert cls[a] == cls[b] == cls[c]
    assert cls[d] != cls[a]


# a number of terms n and groups of term ids below n
GROUPS = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=4),
            max_size=8,
        ),
    )
)


@given(GROUPS)
@settings(max_examples=80, deadline=None)
def test_one_partition_three_readers(case):
    n, groups = case
    # the query lines come first, so term ti gets id i
    text = "rel coll 2\nrel cycl 3\n"
    text += "".join(f"query coll t{i}\n" for i in range(n))
    text += "".join("class " + " ".join(f"t{i}" for i in g) + "\n" for g in groups)
    problem = parse_text(text)
    interned = intern_problem(problem)

    state = CongruenceState(problem.relations)
    for name in problem.term_order:
        state.intern_term(name)
    for group in problem.classes:
        state.mark_possibly_equal([state.term_id(t) for t in group])

    reference = DisjointSet(n)
    for g in groups:
        for t in g[1:]:
            reference.union(g[0], t)
    want = blocks({i: reference.find(i) for i in range(n)})
    assert blocks(interned.class_of) == want
    assert blocks(state.terms.class_of) == want
    for session in state.sessions.values():
        assert blocks(session.class_of) == want
    assert blocks(Session(2, interned.class_of).class_of) == want


TERM_NAMES = st.sampled_from([f"n{i}" for i in range(9)])


@st.composite
def interleaved_files(draw):
    """Problem text with `class`, `hyp`, `eq` and `query` lines in any
    order, so a name may be seen first in any of them, and the lines by
    name as (head, relation or None, names).  A comment may hold '(' or
    ')', which makes `parse_text` check the names of the whole text."""
    arity = {"coll": 3, "eqv": 2}
    text = "rel coll 2\nrel eqv 1\n"
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        head = draw(st.sampled_from(["class", "hyp", "eq", "query"]))
        rel = None
        if head == "class":
            names = draw(st.lists(TERM_NAMES, min_size=2, max_size=4))
        elif head == "eq":
            names = draw(st.lists(TERM_NAMES, min_size=2, max_size=2))
        else:
            rel = draw(st.sampled_from(sorted(arity)))
            size = arity[rel] if head == "hyp" else draw(st.integers(1, 4))
            names = draw(st.lists(TERM_NAMES, min_size=size, max_size=size))
        lines.append((head, rel, tuple(names)))
        comment = draw(st.sampled_from(["", "  # a comment", "  # (a) comment"]))
        text += " ".join([head, *[rel] * (rel is not None), *names]) + comment + "\n"
    return text, lines


def reference_interning(problem):
    """`intern_problem` as it was before the parse assigned ids: from the
    named views, through a `TermTable`."""
    table = TermTable()
    for name in problem.term_order:
        table.intern_term(name)
    ids = table.term_ids
    for group in problem.classes:
        table.mark_possibly_equal([ids[t] for t in group])
    atoms, equalities = [], []
    for s in problem.statements:
        if isinstance(s, Atom):
            atoms.append((s.relation, tuple(ids[t] for t in s.terms)))
        else:
            equalities.append((ids[s.a], ids[s.b]))
    return InternedProblem(
        relations=dict(problem.relations),
        term_names=table.term_names,
        term_ids=ids,
        class_of=table.class_of,
        atoms=atoms,
        equalities=equalities,
        queries=[(q.relation, tuple(ids[t] for t in q.terms)) for q in problem.queries],
    )


@given(interleaved_files())
@settings(max_examples=150, deadline=None)
def test_ids_and_named_views_agree(case):
    text, lines = case
    problem = parse_text(text)
    # interned before any view is built, so it reads the ids alone
    interned = intern_problem(problem)
    order = list(dict.fromkeys(t for _, _, names in lines for t in names))
    assert problem.term_order == order
    assert problem.term_ids == {name: i for i, name in enumerate(order)}
    names = lambda xs: tuple(order[x] for x in xs)
    facts = [(rel, names(xs)) for rel, xs in problem.facts]
    assert facts == [(r, ns) for h, r, ns in lines if h in ("hyp", "eq")]
    statements = [Equality(*ns) if r is None else Atom(r, ns) for r, ns in facts]
    assert problem.statements == statements
    queries = [Query(r, ns) for h, r, ns in lines if h == "query"]
    assert [(rel, names(xs)) for rel, xs in problem.query_ids] == [
        (q.relation, q.terms) for q in queries
    ]
    assert problem.queries == queries
    classes = [ns for h, _, ns in lines if h == "class"]
    assert list(map(names, problem.class_ids)) == classes
    assert problem.classes == classes
    # the class labels are the checker's own; only the blocks must agree
    reference = reference_interning(problem)
    assert blocks(interned.class_of) == blocks(reference.class_of)
    assert interned == dataclasses.replace(reference, class_of=interned.class_of)


@given(interleaved_files())
@settings(max_examples=150, deadline=None)
def test_checked_and_plain_texts_number_alike(case):
    text, _ = case
    # a line that repeats a name it is the first to name
    text += "hyp coll new new n0\n"
    plain = text.replace("(", "").replace(")", "")
    # one '(' or ')' in a comment sends the whole text down the checked path
    problems = [parse_text(t) for t in (plain, plain + "# (\n", plain + "# )\n", text)]
    fields = lambda p: (p.term_order, p.term_ids, p.facts, p.query_ids, p.class_ids)
    assert all(fields(p) == fields(problems[0]) for p in problems[1:])
    problem = problems[0]
    assert problem.term_ids == {name: i for i, name in enumerate(problem.term_order)}
    new, n0 = problem.term_ids["new"], problem.term_ids["n0"]
    assert problem.facts[-1] == ("coll", (new, new, n0))


# a number of ids n <= 30 and pairs of ids below n
PAIRS = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
    )
)


@given(PAIRS)
@settings(max_examples=150, deadline=None)
def test_the_checker_union_find_groups_as_the_engine_does(case):
    n, pairs = case
    # the checker's forest both ways it is built: every id present, or
    # only the ids that a pair names
    full, lazy = dict(zip(range(n), range(n))), {}
    equalities = Equalities()
    names = [f"t{i}" for i in range(n)]
    table = TermTable.from_names(names, {name: i for i, name in enumerate(names)})
    for a, b in pairs:
        union(full, a, b)
        union(lazy, a, b)
        equalities.union(a, b)
        table.mark_possibly_equal((a, b))
    want = blocks({t: equalities.find(t) for t in range(n)})
    assert blocks(table.class_of) == want
    # a label is its class's root id
    assert all(table.class_of[c] == c for c in table.class_of.values())
    assert blocks({t: find(full, t) for t in range(n)}) == want
    assert blocks({t: find(lazy, t) for t in range(n)}) == want
    assert set(lazy) <= {t for pair in pairs for t in pair}


def test_named_views_are_read_only():
    problem = parse_text(EXAMPLE)
    for view in ("statements", "queries", "classes"):
        with pytest.raises(AttributeError):
            setattr(problem, view, [])


@given(GROUPS)
@settings(max_examples=80, deadline=None)
def test_a_table_marks_a_given_partition_further(case):
    # the first groups come as a partition, labelled by any member
    n, groups = case
    given = DisjointSet(n)
    for g in groups[: len(groups) // 2]:
        for t in g[1:]:
            given.union(g[0], t)
    table = TermTable({t: given.find(t) for t in range(n)})
    for g in groups[len(groups) // 2 :]:
        table.mark_possibly_equal(g)
    reference = DisjointSet(n)
    for g in groups:
        for t in g[1:]:
            reference.union(g[0], t)
    assert blocks(table.class_of) == blocks({i: reference.find(i) for i in range(n)})
    assert all(table.class_of[c] == c for c in table.class_of.values())


def located(text, line, column, message, tag):
    # the id is the text, the line and a short tag for the message
    return pytest.param(text, line, column, message, id=f"{text}-{line}-{tag}")


@pytest.mark.parametrize(
    "text,line,column,message",
    [
        located(
            "rel coll 2\nhyp coll a b\n",
            2, 5, "relation 'coll' takes 3 terms, got 2", "takes 3 terms",
        ),
        located(
            "hyp coll a b c\n", 1, 5, "unknown relation 'coll'", "unknown relation"
        ),
        located(
            "rel coll 2\nrel coll 2\n",
            2, 5, "relation 'coll' already declared", "already declared",
        ),
        located(
            "rel coll zero\n",
            1, 10, "k must be a positive integer, got 'zero'", "positive integer",
        ),
        located(
            "rel coll 0\n",
            1, 10, "k must be a positive integer, got '0'", "zero arity",
        ),
        located(
            "rel coll 2\nquery coll\n",
            2, 7, "query needs at least one term", "at least one term",
        ),
        located("bogus a b\n", 1, 1, "unknown statement 'bogus'", "unknown statement"),
        located("rel coll 2\neq a\n", 2, 1, "eq needs exactly two terms", "exactly two"),
        located(
            "rel co(ll 2\n",
            1, 5, "invalid relation name 'co(ll'", "invalid relation name",
        ),
        located(
            "rel coll 2\nclass a\n", 2, 1, "class needs at least two terms", "at least two"
        ),
        located("rel coll\n", 1, 1, "rel needs a name and an arity", "too few"),
        located("  rel coll 2 3\n", 1, 3, "rel needs a name and an arity", "too many"),
        located(
            "rel coll 2\nhyp  # no name\n",
            2, 1, "hyp needs a relation name", "no relation",
        ),
        located(
            "rel coll 2\n\tquery\n", 2, 2, "query needs a relation name", "no relation"
        ),
        located(
            "rel coll 2\nquery cycl a b\n",
            2, 7, "unknown relation 'cycl'", "unknown relation",
        ),
        located(
            "rel coll 2\nhyp coll a b (c\n",
            2, 14, "invalid term name '(c'", "invalid term name",
        ),
        located(
            "rel coll 2\nclass a b(\n", 2, 9, "invalid term name 'b('", "in class"
        ),
        located("rel coll 2\neq a )b\n", 2, 6, "invalid term name ')b'", "in eq"),
        located(
            "rel coll 2\nquery coll a b c (d\n",
            2, 18, "invalid term name '(d'", "in query",
        ),
        # U+3000 (ideographic space) separates tokens like any whitespace
        located(
            "rel\u3000coll\u30002\nhyp\u3000coll\u3000a\u3000b\n",
            2, 5, "relation 'coll' takes 3 terms, got 2", "wide space",
        ),
        located(
            "rel coll 2\nhyp coll a b c\nclass\u3000a\u3000b(\n",
            3, 9, "invalid term name 'b('", "wide space",
        ),
        # lines break at "\n", "\r\n" and "\r" only; a form feed, a file
        # separator or U+2028 is whitespace inside its line
        located(
            "rel coll 2\nhyp coll a b c\x0c\nhyp coll a b\n",
            3, 5, "relation 'coll' takes 3 terms, got 2", "form feed",
        ),
        located(
            "rel coll 2\r\nhyp coll a b c\rhyp coll a b\r\n",
            3, 5, "relation 'coll' takes 3 terms, got 2", "carriage returns",
        ),
        located(
            "rel coll 2\nhyp\x1ccoll\u2028a\x85b\x0bc\x1dd\n",
            2, 5, "relation 'coll' takes 3 terms, got 4", "separators inside a line",
        ),
    ],
)
def test_located_errors(text, line, column, message):
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert (e.value.line, e.value.column, e.value.message) == (line, column, message)
    assert str(e.value) == f"line {line}, col {column}: {message}"


class TestGenerate:
    def test_seed_stability(self):
        a = generate(2, 9, 2, seed=7, partition_rate=0.3)
        b = generate(2, 9, 2, seed=7, partition_rate=0.3)
        assert a == b
        assert a != generate(2, 9, 2, seed=8, partition_rate=0.3)

    def test_single_line_full_coverage(self):
        text = generate(2, 7, 1, seed=5)
        problem = parse_text(text)
        interned = intern_problem(problem)
        hyps = [xs for _, xs in interned.atoms]
        assert len(hyps) == 5
        for combo in itertools.combinations(range(7), 3):
            assert oracle_entailed(2, hyps, combo, range(7))

    def test_zero_partition_rate_has_no_classes(self):
        problem = parse_text(generate(2, 8, 1, seed=1, partition_rate=0.0))
        assert problem.classes == []

    def test_partition_rate_emits_classes(self):
        problem = parse_text(generate(2, 10, 1, seed=1, partition_rate=0.6))
        assert problem.classes

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            generate(2, 5, 2, seed=0)
        with pytest.raises(ValueError):
            generate(0, 5, 1, seed=0)
        with pytest.raises(ValueError):
            generate(2, 9, 1, seed=0, partition_rate=1.5)

    def test_generated_files_parse_for_all_k(self):
        for k in (1, 2, 3):
            problem = parse_text(generate(k, 4 * (k + 1), 2, seed=k))
            assert list(problem.relations.values()) == [k]
            atoms = [s for s in problem.statements if isinstance(s, Atom)]
            for atom in atoms:
                assert len(atom.terms) == k + 1


# pieces of well-formed problem text, so the fuzzer also reaches deep parses
PROBLEM_PIECES = st.sampled_from(
    ["rel", "coll", "hyp", "query", "eq", "class", "#", "a", "b", "c(",
     "0", "2", "-1", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
     "\u2028", "\u3000"]
)


@given(st.one_of(st.text(), st.lists(PROBLEM_PIECES, max_size=60).map("".join)))
@settings(max_examples=300, deadline=None)
def test_parse_text_fuzz_raises_only_parse_errors(text):
    try:
        parse_text(text)
    except ParseError as e:
        # every error points at the first character of a token of its line
        code = re.split(r"\r\n|\r|\n", text)[e.line - 1].split("#", 1)[0]
        assert e.column in {m.start() + 1 for m in re.finditer(r"\S+", code)}
