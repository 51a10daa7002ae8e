import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kequiv import closure_sets, minimal_supports, oracle_entailed, saturate
from helpers import random_instance

HYPS = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 2, 3)]
UNIVERSE = range(7)


def test_fully_connected_instance_derives_all_triples():
    derived = saturate(2, HYPS, UNIVERSE)
    for combo in itertools.combinations(range(7), 3):
        assert combo in derived


def test_two_lines_through_one_point_stay_apart():
    hyps = [(0, 1, 2), (0, 3, 4)]
    assert not oracle_entailed(2, hyps, (1, 2, 3), range(5))
    assert oracle_entailed(2, hyps, (0, 1, 2), range(5))


def test_plain_transitivity_at_k_one():
    assert oracle_entailed(1, [(0, 1), (1, 2)], (0, 2), range(3))
    assert not oracle_entailed(1, [(0, 1), (2, 3)], (0, 2), range(4))


def test_subreflexive_tuples_present():
    derived = saturate(2, [], range(3))
    assert (0, 0, 1) in derived
    assert (2, 2, 2) in derived
    assert (0, 1, 2) not in derived


def test_entailed_examples():
    assert oracle_entailed(2, [], (0, 0, 1), range(2))
    assert oracle_entailed(2, HYPS, (0, 1, 3), UNIVERSE)
    assert not oracle_entailed(2, [(0, 1, 2), (0, 3, 4)], (1, 2, 3), range(5))


def test_arbitrary_size_queries():
    assert oracle_entailed(2, HYPS, range(7), UNIVERSE)
    assert oracle_entailed(2, HYPS, (0,), UNIVERSE)
    assert not oracle_entailed(2, [(0, 1, 2)], (0, 1, 2, 3), range(4))


def test_universe_guard():
    with pytest.raises(ValueError):
        saturate(2, [], range(13))
    with pytest.raises(ValueError):
        oracle_entailed(2, [], (0, 1, 2), range(13))


def test_enumeration_guard():
    with pytest.raises(ValueError):
        saturate(100, [], range(5))
    with pytest.raises(ValueError):
        saturate(10**9, [], range(1))
    with pytest.raises(ValueError):
        saturate(10**13, [], [])
    saturate(3, [], range(12))  # the C7 growth table stays within the guard


def test_hypothesis_outside_universe_rejected():
    with pytest.raises(ValueError):
        saturate(2, [(0, 1, 9)], range(3))


class TestPartitionSemantics:
    def test_possibly_equal_pair_enables_transitivity(self):
        # a1 and a2 possibly equal: facts overlap on the two distinct
        # classes {b, c}, so everything fuses
        partition = {0: 0, 1: 0, 2: 2, 3: 3}
        hyps = [(0, 2, 3), (1, 2, 3)]
        assert oracle_entailed(2, hyps, (0, 1, 2), range(4), partition)

    def test_possibly_equal_anchor_blocks_transitivity(self):
        # shared pair {b, c} spans one class: no fusing allowed
        partition = {0: 0, 1: 1, 2: 1, 3: 3}
        hyps = [(0, 1, 2), (1, 2, 3)]
        assert not oracle_entailed(2, hyps, (0, 1, 3), range(4), partition)

    def test_same_class_is_not_known_equal(self):
        # sharing a class never makes a tuple sub-reflexive by itself
        partition = {0: 0, 1: 0, 2: 2}
        assert not oracle_entailed(2, [], (0, 1, 2), range(3), partition)
        assert oracle_entailed(2, [], (0, 0, 2), range(3), partition)


class TestMinimalSupports:
    def test_golden_query_support(self):
        supports = minimal_supports(2, HYPS, (0, 1, 3))
        assert frozenset({0, 4}) in supports
        for a, b in itertools.combinations(supports, 2):
            assert not a <= b and not b <= a

    def test_own_hypothesis_support(self):
        supports = minimal_supports(2, HYPS, (0, 1, 2))
        assert frozenset({0}) in supports

    def test_subreflexive_query_empty_support(self):
        assert minimal_supports(2, HYPS, (0, 0, 1)) == [frozenset()]

    def test_hypothesis_count_guard(self):
        with pytest.raises(ValueError):
            minimal_supports(2, [(0, 1, 2)] * 9, (0, 1, 2))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_monotone_in_hypotheses(seed):
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3])
    n_terms, hyps, class_of = random_instance(rng, k, partitioned=rng.random() < 0.3)
    some = closure_sets(k, hyps[: len(hyps) // 2], class_of)
    more = closure_sets(k, hyps, class_of)
    # every old derived set is swallowed by a new one
    assert all(any(old <= new for new in more) for old in some)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_idempotent_closure(seed):
    rng = random.Random(seed)
    k = rng.choice([1, 2])
    n_terms, hyps, class_of = random_instance(rng, k, partitioned=rng.random() < 0.3)
    first = closure_sets(k, hyps, class_of)
    again = closure_sets(k, [tuple(sorted(s)) for s in first], class_of)
    assert again == first
