"""The judge of `kequiv check` keeps, per relation, the leaves and `subst`
steps it has judged (`kequiv.proofs.checker`).  These tests pin that a
file checks as each of its lines checked alone, and that a judge warmed
on other text judges as a fresh one."""

import itertools
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from kequiv import ProofCheckError, ProofSyntaxError, check, checker
from kequiv.cli import _build_state, main
from kequiv.problem import parse_text
from helpers import (
    class_groups,
    eq_chain_check_text,
    many_lines_text,
    mutate_proof,
    random_congruence_instance,
    random_instance,
)

# the fresh names `mutate_proof` may cite, at most k + 1 <= 4 of them;
# a `class` line declares them, so that no mutant is refused for an
# unknown name
FRESH = "class fresh0 fresh1 fresh2 fresh3\n"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def checked(tmp_path, capsys, problem, proof_lines):
    """`kequiv check` of `proof_lines` against `problem`, on the whole file
    and on each line alone, the others `not-entailed`, which passes
    unread: ((exit code, output lines), [(exit code, output line)])."""
    path, proofs = tmp_path / "p.kq", tmp_path / "p.proofs"
    path.write_text(problem)
    proofs.write_text("".join(line + "\n" for line in proof_lines))
    whole = run(capsys, "check", str(path), str(proofs))
    alone = []
    for i, line in enumerate(proof_lines):
        lines = ["not-entailed"] * len(proof_lines)
        lines[i] = line
        proofs.write_text("".join(line + "\n" for line in lines))
        code, out = run(capsys, "check", str(path), str(proofs))
        alone.append((code, out[i]))
    return whole, alone


def assert_checks_as_alone(tmp_path, capsys, problem, proof_lines):
    (code, out), alone = checked(tmp_path, capsys, problem, proof_lines)
    assert out == [line for _, line in alone]
    assert code == max(code for code, _ in alone)
    return out


# `(assume 1)` is in range for `a` only, and `(subrefl x y)` is too wide
# for `a` (k = 1) only; each holds first in the relation it passes in
RELATIONS = """\
rel a 1
rel b 2
hyp a x y
hyp a y z
hyp b x y w
query a y z
query b x y w
query b x y
query a x y
"""


def test_tables_are_bound_to_their_relation(tmp_path, capsys):
    proofs = ["entailed (assume 1)"] * 2 + ["entailed (subrefl x y)"] * 2
    out = assert_checks_as_alone(tmp_path, capsys, RELATIONS, proofs)
    assert out == [
        "pass",
        "fail: line 2: at root: hypothesis index 1 out of range",
        "pass",
        "fail: line 4: at root: sub-reflexivity allows at most 1 terms, got 2",
    ]
    # and with each pair's failing line first
    head, queries = RELATIONS.split("query", 1)
    queries = ("query" + queries).splitlines()
    order = [1, 0, 3, 2]
    problem = head + "".join(queries[i] + "\n" for i in order)
    out = assert_checks_as_alone(tmp_path, capsys, problem, [proofs[i] for i in order])
    assert out[0].startswith("fail: line 1:") and out[1] == "pass"


# the stretch `subrefl b 0` is a `subst` step's atoms in one line and a
# leaf's opening in another
COLLIDING = """\
rel r 2
class subrefl b
eq subrefl b
hyp r subrefl c d
query r b c d
query r b 0
"""
COLLIDING_PROOFS = ["entailed (subst (assume 0)subrefl b 0)", "entailed (subrefl b 0)"]


def test_leaf_and_step_tables_never_collide(tmp_path, capsys):
    out = assert_checks_as_alone(tmp_path, capsys, COLLIDING, COLLIDING_PROOFS)
    assert out == ["pass", "pass"]
    head, queries = COLLIDING.split("query", 1)
    queries = ("query" + queries).splitlines()
    problem = head + queries[1] + "\n" + queries[0] + "\n"
    out = assert_checks_as_alone(tmp_path, capsys, problem, COLLIDING_PROOFS[::-1])
    assert out == ["pass", "pass"]


def test_a_node_that_breaks_a_law_is_not_kept(tmp_path, capsys):
    # each failing node stands twice, then beside the step that passes
    problem = "rel r 2\nclass a b\nclass c e\neq a b\neq c e\nhyp r a c d\n"
    proofs = [
        "(subst (assume 0) a b 1)",
        "(subst (assume 0) a b 2)",
        "(subrefl a c d)",
        "(trans (subst (assume 0) a b 1) (subst (assume 0) a b 0))",
    ]
    proofs = [f"entailed {p}" for p in proofs for _ in range(2)]
    proofs.append("entailed (subst (assume 0) a b 0)")
    problem += "query r b c d\n" * len(proofs)
    out = assert_checks_as_alone(tmp_path, capsys, problem, proofs)
    assert [line.split(": ", 2)[-1] for line in out] == [
        *["at root: equality 1 does not relate the substituted terms"] * 2,
        *["at root: equality index 2 out of range"] * 2,
        *["at root: sub-reflexivity allows at most 2 terms, got 3"] * 2,
        *["at root.0: equality 1 does not relate the substituted terms"] * 2,
        "pass",
    ]


def instance_text(rng):
    """A problem file: a C3 or C9 random instance, queried on some of its
    (k+1)-term sets, or the eq-chain or many-lines shape at a small n."""
    shape = rng.choice(["c3", "c9", "eq-chain", "many-lines"])
    if shape == "eq-chain":
        return eq_chain_check_text(rng.randint(4, 24))
    if shape == "many-lines":
        return many_lines_text(rng.randint(2, 5))
    k = rng.choice([1, 2, 3])
    if shape == "c3":
        partitioned = rng.random() < 0.5
        n_terms, hyps, class_of = random_instance(rng, k, partitioned=partitioned)
        statements = [("atom", xs) for xs in hyps]
    else:
        n_terms, class_of, statements = random_congruence_instance(rng, k)
    name = lambda t: f"t{t}"
    lines = [f"rel r {k}"]
    lines += ["class " + " ".join(map(name, g)) for g in class_groups(class_of)]
    for kind, xs in statements:
        lines.append(("eq " if kind == "eq" else "hyp r ") + " ".join(map(name, xs)))
    combos = list(itertools.combinations(range(n_terms), k + 1))
    for combo in rng.sample(combos, min(len(combos), 12)):
        lines.append("query r " + " ".join(map(name, combo)))
    return "".join(line + "\n" for line in lines)


def outcome(judge, text):
    """judge(text)'s conclusion, or its error's class, message and path."""
    try:
        return judge(text)
    except (ProofSyntaxError, ProofCheckError) as e:
        return type(e), str(e), getattr(e, "path", None)


# tmp_path and capsys are shared by all examples: each rewrites the files and
# reads the captured output of every command
@given(st.integers(0, 10**6))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_file_checks_as_its_lines_alone(tmp_path, capsys, seed):
    rng = random.Random(seed)
    text = instance_text(rng)
    path = tmp_path / "solve.kq"
    path.write_text(text)
    code, lines = run(capsys, "solve", str(path))
    assert code == 0
    problem = parse_text(text)
    state = _build_state(problem)
    # one mutation on about half the entailed lines, judged on the
    # engine's log by `check` for the conclusion `mutate_proof` reads
    cited = []
    for i, ((rel, _), line) in enumerate(zip(problem.query_ids, lines)):
        if not line.startswith("entailed "):
            continue
        session = state.sessions[rel]
        proof = line[len("entailed ") :]
        if rng.random() < 0.5:
            log = (session.k, session.hypotheses, session.class_of, session.equalities)
            conclusion = check(proof, *log, ids=session.terms.term_ids)
            proof, _ = mutate_proof(rng, proof, conclusion, session)
            lines[i] = "entailed " + proof
        cited.append((rel, proof))
    assert_checks_as_alone(tmp_path, capsys, text + FRESH, lines)

    # a judge warmed on the lines before gives what a fresh one gives
    ids = dict(problem.term_ids)
    ids.update((f"fresh{j}", len(problem.term_order) + j) for j in range(4))
    judges = {}
    for rel, proof in cited:
        session = state.sessions[rel]
        log = (session.k, session.hypotheses, session.class_of, session.equalities)
        if rel not in judges:
            judges[rel] = checker(*log, ids=ids)
        fresh = checker(*log, ids=ids)
        assert outcome(judges[rel], proof) == outcome(fresh, proof), proof
