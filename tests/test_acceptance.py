"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s or -rA to see them)."""

import itertools
import random
import time

from kequiv import (
    Merged,
    ProofCheckError,
    Session,
    check,
    closure_sets,
    covered,
    format_proof,
    minimal_supports,
    saturate,
    used_hypotheses,
)
from kequiv.problem import generate, intern_problem, parse_text
from helpers import (
    DisjointSet,
    build_session,
    check_text,
    mutate_proof,
    random_congruence_instance,
    random_instance,
    run_congruence_differential,
    run_differential,
)

TABLE_HYPS = ["abc", "cde", "efg", "adg", "bcd"]


def _report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _table_session():
    s = Session(2)
    ids = {c: s.intern_term(c) for c in "abcdefg"}
    for hyp in TABLE_HYPS:
        s.assert_hypothesis([ids[c] for c in hyp])
    return s, ids


def test_c1_golden_replay():
    def replay():
        return _table_session()[0]

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        replay()
        best = min(best, time.perf_counter() - t0)
    s = replay()
    expected = [
        ("abc", 0), ("cde", 0), ("efg", 0), ("adg", 0), ("bcd", 0),
        ("abcd", 0), ("abcde", 0), ("abcdeg", 0), ("abcdefg", 1),
    ]
    got = [
        ("".join(sorted(s.term_names[t] for t in r.terms)), int(r.active))
        for r in s.ksets
    ]
    arena_ok = got == expected
    history_ok = [r.history for r in s.ksets[5:]] == [
        Merged(0, 4), Merged(1, 5), Merged(3, 6), Merged(2, 7),
    ]
    hyp_ok = [h.hyp_index for h in (r.history for r in s.ksets[:5])] == list(range(5))
    _report(
        "C1 table replay",
        arena_ok and history_ok and hyp_ok and best < 0.001,
        f"arena={arena_ok} history={history_ok} best={best * 1e6:.0f}us",
    )


def test_c2_explain_golden():
    s, ids = _table_session()
    proof = s.explain(8, [ids[c] for c in "abd"])
    text = format_proof(proof, s.term_names)
    conclusion = check_text(proof, s)
    _report(
        "C2 explain golden",
        text == "(project (trans (assume 0) (assume 4)) a b d)"
        and conclusion == {ids[c] for c in "abd"},
        text,
    )


PROOF_POOL = []


def _seeded_instances(count, master_seed, partition_fraction=0.3):
    for i in range(count):
        rng = random.Random(master_seed + i)
        k = rng.choice([1, 2, 3])
        yield rng, k, random_instance(
            rng, k, partitioned=rng.random() < partition_fraction
        )


def test_c3_oracle_differential():
    start = time.perf_counter()
    instances = 0
    mismatches = 0
    for rng, k, (n_terms, hyps, class_of) in _seeded_instances(1000, 31_000):
        instances += 1
        mismatches += len(
            run_differential(k, n_terms, hyps, class_of, proof_sink=PROOF_POOL)
        )
    elapsed = time.perf_counter() - start
    _report(
        "C3 oracle differential",
        instances >= 1000 and mismatches == 0 and elapsed < 60,
        f"{instances} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c4_union_find_specialization():
    mismatches = 0
    for i in range(200):
        rng = random.Random(41_000 + i)
        n_terms = rng.randint(2, 10)
        hyps = [
            tuple(rng.sample(range(n_terms), 2) if rng.random() > 0.1
                  else [rng.randrange(n_terms)] * 2)
            for _ in range(rng.randint(0, 8))
        ]
        s = build_session(1, n_terms, hyps)
        dsu = DisjointSet(n_terms)
        for a, b in hyps:
            dsu.union(a, b)
        for a, b in itertools.combinations(range(n_terms), 2):
            proof = s.resolve_query((a, b))
            if (proof is not None) != (dsu.find(a) == dsu.find(b)):
                mismatches += 1
            if proof is not None:
                assert check_text(proof, s) == {a, b}
                text = format_proof(proof, s.term_names)
                PROOF_POOL.append((text, frozenset((a, b)), s))
        s.validate()
    _report("C4 k=1 union-find", mismatches == 0, f"{mismatches} mismatches")


def test_c5_proof_soundness_fuzzing():
    rng = random.Random(51_000)
    pool = [entry for entry in PROOF_POOL if entry[0] is not None]
    if not pool:  # standalone run: rebuild a representative pool
        for _, k, (n_terms, hyps, class_of) in _seeded_instances(150, 31_000):
            run_differential(k, n_terms, hyps, class_of, proof_sink=pool)
    rechecked = 0
    for proof, conclusion, session in pool:
        got = check(
            proof, session.k, session.hypotheses, session.class_of,
            session.equalities, ids=session.terms.term_ids,
        )
        assert got == conclusion
        rechecked += 1
    mutations = 0
    unsound = 0
    while mutations < 1000:
        proof, conclusion, session = rng.choice(pool)
        mutant, ids = mutate_proof(rng, proof, conclusion, session)
        mutations += 1
        try:
            got = check(
                mutant, session.k, session.hypotheses, session.class_of,
                session.equalities, ids=ids,
            )
        except ProofCheckError:
            continue
        if got == conclusion:
            unsound += 1
    _report(
        "C5 proof soundness",
        rechecked > 0 and unsound == 0,
        f"{rechecked} proofs recheck, {mutations} mutations, {unsound} unsound",
    )


def test_c6_structural_bounds():
    violations = 0
    checked = 0
    for _, k, (n_terms, hyps, class_of) in _seeded_instances(300, 61_000):
        s = build_session(k, n_terms, hyps, class_of)
        st = s.stats()
        n = st.hypotheses
        checked += 1
        if not (
            st.active <= n
            and st.merges <= max(0, n - 1)
            and st.find_merges_calls <= 2 * (n + st.rewrites)
            and st.max_kset_size <= (k + n if n else 0)
        ):
            violations += 1
    # the long-chain workload exercises the bounds at their extremes
    s = Session(2)
    ids = [s.intern_term(f"p{i}") for i in range(502)]
    for i in range(500):
        s.assert_hypothesis(ids[i : i + 3])
    st = s.stats()
    chain_ok = (
        st.active == 1
        and st.merges == 499
        and st.find_merges_calls <= 1000
        and st.max_kset_size == 502
    )
    _report(
        "C6 structural bounds",
        violations == 0 and chain_ok,
        f"{checked} instances, {violations} violations, chain={chain_ok}",
    )


def test_c7_scale_and_naive_blowup():
    start = time.perf_counter()
    s = Session(2)
    ids = [s.intern_term(f"p{i}") for i in range(2002)]
    for i in range(2000):
        s.assert_hypothesis(ids[i : i + 3])
    proof = s.resolve_query([ids[0], ids[1000], ids[2001]])
    format_proof(proof, s.term_names)
    elapsed = time.perf_counter() - start
    assert s.stats().merges == 1999
    assert check_text(proof, s) == {
        ids[0], ids[1000], ids[2001],
    }

    # measured, reported: naive atom materialization grows fast in k
    print("C7 growth CSV (engine,k,n_hyps,n_atoms,wall_time):")
    for k in (1, 2, 3):
        terms = 8 + k  # single covered group: 8 hypotheses
        text = generate(k, terms, 1, seed=7)
        interned = intern_problem(parse_text(text))
        hyps = [xs for _, xs in interned.atoms]
        t0 = time.perf_counter()
        engine_session = build_session(k, terms, hyps)
        for _, xs in interned.queries:
            engine_session.resolve_query(xs)
        t_engine = time.perf_counter() - t0
        t0 = time.perf_counter()
        atoms = saturate(k, hyps, range(terms))
        for _, xs in interned.queries:
            all(
                c in atoms
                for c in itertools.combinations(sorted(set(xs)), k + 1)
            )
        t_naive = time.perf_counter() - t0
        print(f"  kset,{k},{len(hyps)},-,{t_engine:.6f}")
        print(f"  naive,{k},{len(hyps)},{len(atoms)},{t_naive:.6f}")
    _report(
        "C7 scale",
        elapsed < 10.0,
        f"n=2000 solve+query+explain in {elapsed:.2f}s",
    )


def test_c8_explain_minimality_measured():
    minimal = 0
    total = 0
    spot_checks = 0
    for i in range(100):
        rng = random.Random(81_000 + i)
        k = rng.choice([1, 2, 3])
        n_terms, hyps, class_of = random_instance(
            rng, k, max_terms=7, max_hyps=7
        )
        s = build_session(k, n_terms, hyps, class_of)
        cache = {}

        def entails(indices, query):
            if indices not in cache:
                cache[indices] = closure_sets(
                    k, [hyps[j] for j in indices], class_of
                )
            return covered(k, query, cache[indices])

        for combo in itertools.combinations(range(n_terms), k + 1):
            proof = s.resolve_query(combo)
            if proof is None:
                continue
            text = format_proof(proof, s.term_names)
            used = tuple(sorted(used_hypotheses(text)))
            total += 1
            is_minimal = entails(used, combo) and all(
                not entails(tuple(j for j in used if j != drop), combo)
                for drop in used
            )
            minimal += is_minimal
            if spot_checks < 5 and used:
                supports = minimal_supports(k, hyps, combo, class_of)
                assert is_minimal == (frozenset(used) in supports)
                spot_checks += 1
    fraction = minimal / total if total else float("nan")
    print(
        f"C8 explain minimality: {minimal}/{total} = {fraction:.1%} "
        "of entailed queries cite a minimal hypothesis set"
    )
    _report("C8 minimality measured", total >= 100, f"{total} queries measured")


def test_c9_congruence_differential():
    mismatches = 0
    instances = 0
    for i in range(200):
        rng = random.Random(91_000 + i)
        k = rng.choice([1, 2, 3])
        n_terms, class_of, statements = random_congruence_instance(rng, k)
        instances += 1
        mismatches += len(
            run_congruence_differential(k, n_terms, class_of, statements)
        )
    _report(
        "C9 congruence differential",
        instances >= 200 and mismatches == 0,
        f"{instances} instances, {mismatches} mismatches",
    )
