import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kequiv import (
    CongruenceState,
    ParseError,
    Session,
    generate,
    intern_problem,
    oracle_entailed,
    parse_text,
)
from helpers import DisjointSet

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
    assert len(problem.atoms) == 5
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


def blocks(class_of):
    by_class = {}
    for t, c in class_of.items():
        by_class.setdefault(c, set()).add(t)
    return sorted(sorted(b) for b in by_class.values())


@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=4),
                max_size=8,
            ),
        )
    )
)
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
    assert blocks(state.class_of) == want
    for session in state.sessions.values():
        assert blocks(session.class_of) == want
    assert blocks(Session(2, interned.class_of).class_of) == want


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("rel coll 2\nhyp coll a b\n", 2, "takes 3 terms"),
        ("hyp coll a b c\n", 1, "unknown relation"),
        ("rel coll 2\nrel coll 2\n", 2, "already declared"),
        ("rel coll zero\n", 1, "positive integer"),
        ("rel coll 2\nquery coll\n", 2, "at least one term"),
        ("bogus a b\n", 1, "unknown statement"),
        ("rel coll 2\neq a\n", 2, "exactly two"),
        ("rel co(ll 2\n", 1, "invalid relation name"),
        ("rel coll 2\nclass a\n", 2, "at least two"),
        ("rel coll 2\nhyp coll a b (c\n", 2, "invalid term name"),
    ],
)
def test_located_errors(text, line, fragment):
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert e.value.line == line
    assert fragment in e.value.message
    assert e.value.column >= 1


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
            for atom in problem.atoms:
                assert len(atom.terms) == k + 1
