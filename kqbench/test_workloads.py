"""Self-test of the workload generators and the tracer, on downsized instances.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q kqbench
"""

import contextlib
import io

import pytest

import kequiv.cli
import kequiv.proofs
from kequiv.oracle import closure_sets, covered

import workloads
from tracing import LAYERS, Tracer

SMALL = 0.02


def oracle_view(inst):
    """Hypotheses, planted lines and queries as term ids, equalities applied."""
    names = sorted(
        {t for st in inst.statements for t in (st[2] if st[0] == "hyp" else st[1:])}
        | {t for _, ts in inst.queries for t in ts}
        | {t for group in inst.classes for t in group}
    )
    ids = {name: i for i, name in enumerate(names)}
    class_of = dict(enumerate(range(len(names))))
    for group in inst.classes:
        merged = {class_of[ids[t]] for t in group}
        for t, c in class_of.items():
            if c in merged:
                class_of[t] = min(merged)
    image = lambda terms: [ids[inst.rep.get(t, t)] for t in terms]
    return ids, class_of, image


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_planted_truth_matches_oracle(name, seed):
    inst = workloads.build(name, seed, SMALL)
    ids, class_of, image = oracle_view(inst)
    truth = inst.truth()
    for rel, k in inst.relations.items():
        family = closure_sets(k, [image(h) for h in inst.hypotheses(rel)], class_of)
        planted = {frozenset(ids[t] for t in line) for line in inst.lines[rel]}
        assert family == planted
        for (qrel, terms), expected in zip(inst.queries, truth):
            if qrel == rel:
                assert covered(k, image(terms), family) == expected
    assert any(truth) and not all(truth)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_seeded(name):
    assert workloads.build(name, 3).text() == workloads.build(name, 3).text()
    assert workloads.build(name, 3).text() != workloads.build(name, 4).text()


def test_tracer_spans_add_up_and_unpatch(tmp_path):
    path = tmp_path / "p.kq"
    path.write_text(workloads.build("eq-chain", 1, SMALL).text())
    original = kequiv.cli.format_proof
    tracer = Tracer()

    def solve():
        with contextlib.redirect_stdout(io.StringIO()):
            return kequiv.cli.main(["solve", str(path)])

    with tracer.patch():
        rc, total, layers, own = tracer.run(solve)
    assert rc == 0
    assert set(layers) == set(LAYERS)
    for layer in ("problem.parse", "congruence.assert_eq", "proofs.format"):
        assert layers[layer] > 0
    assert sum(layers.values()) + own == pytest.approx(total, abs=1e-9)
    assert kequiv.cli.format_proof is original is kequiv.proofs.format_proof
