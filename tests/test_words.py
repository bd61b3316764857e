"""Tests for the word oracle: predicates, enumeration, and the three
counting engines checked against one another."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz.exact import factorial, multinomial
from carlitz.formulas import phi_count
from carlitz.words import (
    MultiplicityVector,
    SizeLimitError,
    count_carlitz_by_filter,
    count_carlitz_total,
    count_ordered_carlitz,
    enumerate_ordered_carlitz,
    is_carlitz,
    is_ordered,
)


def word(digits: str) -> tuple[int, ...]:
    return tuple(int(d) for d in digits)


class TestMultiplicityVector:
    def test_uniform(self):
        assert MultiplicityVector.uniform(3, 4).mults == (3, 3, 3, 3)
        assert MultiplicityVector.uniform(2, 0).mults == ()

    def test_prefixed(self):
        mv = MultiplicityVector.prefixed(2, 3, 2)
        assert mv.mults == (2, 3, 3)
        assert mv.total == 8
        assert mv.symbols == 3

    def test_rejects_nonpositive_multiplicities(self):
        with pytest.raises(ValueError):
            MultiplicityVector((2, 0, 3))
        with pytest.raises(ValueError):
            MultiplicityVector.uniform(0, 3)
        with pytest.raises(ValueError):
            MultiplicityVector.prefixed(0, 3, 2)
        with pytest.raises(ValueError):
            MultiplicityVector.uniform(2, -1)

    def test_rejects_non_integer_multiplicities(self):
        for bad in ((2.7, 3), (2.0, 3), ("2", 3)):
            with pytest.raises(ValueError):
                MultiplicityVector(bad)
        assert MultiplicityVector((True, 2)).mults == (1, 2)

    def test_empty_vector_is_the_empty_word(self):
        mv = MultiplicityVector(())
        assert mv.total == 0
        assert count_carlitz_total(mv) == 1
        assert count_ordered_carlitz(mv) == 1
        assert list(enumerate_ordered_carlitz(mv)) == [()]


def test_is_carlitz():
    assert is_carlitz(word("1212"))
    assert not is_carlitz(word("1122"))
    assert is_carlitz(())
    assert is_carlitz((7,))
    assert not is_carlitz(word("010221"))


def test_is_ordered():
    assert is_ordered(word("010212"), MultiplicityVector.uniform(2, 3))
    assert not is_ordered(word("1010"), MultiplicityVector.uniform(2, 2))
    assert is_ordered(word("01202121"), MultiplicityVector.prefixed(2, 3, 2))


def test_is_ordered_rejects_wrong_multiset():
    with pytest.raises(ValueError):
        is_ordered(word("0011"), MultiplicityVector((2, 3)))
    with pytest.raises(ValueError):
        is_ordered(word("0022"), MultiplicityVector((2, 2)))


def test_enumerate_uniform_2_3():
    got = list(enumerate_ordered_carlitz(MultiplicityVector.uniform(2, 3)))
    assert got == [
        word("010212"),
        word("012012"),
        word("012021"),
        word("012102"),
        word("012120"),
    ]


def test_enumerate_uniform_2_2():
    got = list(enumerate_ordered_carlitz(MultiplicityVector.uniform(2, 2)))
    assert got == [word("0101")]


def test_enumerate_prefixed_2_3_2():
    # Two 0s, three 1s, three 2s: exactly 8 ordered Carlitz words.
    got = list(enumerate_ordered_carlitz(MultiplicityVector.prefixed(2, 3, 2)))
    assert len(got) == 8
    assert word("01202121") in got
    assert word("01212021") in got
    assert got == sorted(got)


def test_enumerate_emits_lexicographically():
    got = list(enumerate_ordered_carlitz(MultiplicityVector((2, 3, 1))))
    assert got == sorted(got)
    assert len(set(got)) == len(got)


def test_count_ordered_known_values():
    assert count_ordered_carlitz(MultiplicityVector.uniform(3, 4)) == 1721
    assert count_ordered_carlitz(MultiplicityVector.uniform(4, 1)) == 0
    assert count_ordered_carlitz(MultiplicityVector.prefixed(3, 4, 1)) == 0


def test_count_ordered_uniform_k2_row():
    got = [count_ordered_carlitz(MultiplicityVector.uniform(2, n)) for n in range(7)]
    assert got == [1, 0, 1, 5, 36, 329, 3655]


@pytest.mark.parametrize("mv", dict.fromkeys([
    MultiplicityVector(()), MultiplicityVector((1,)), MultiplicityVector((2,)),
    MultiplicityVector((1, 1)), MultiplicityVector((3, 1, 2)), MultiplicityVector((1, 4, 1)),
    *(MultiplicityVector.uniform(k, n) for k in range(1, 6) for n in range(12 // k + 1)),
    *(MultiplicityVector.prefixed(c, k, n) for c in (1, 2, 3) for k in (1, 2, 3) for n in range(4)),
]), ids=lambda mv: ",".join(map(str, mv.mults)) or "empty")
def test_count_ordered_matches_enumeration(mv):
    """The DP gives the generator's yield count on uniform and prefixed
    vectors up to 12 letters; every vector up to 11 letters is
    test_count_ordered_matches_enumeration_up_to_11_letters's."""
    assert count_ordered_carlitz(mv) == sum(1 for _ in enumerate_ordered_carlitz(mv))


def compositions(total: int):
    """Every tuple of positive integers summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_count_ordered_matches_enumeration_up_to_11_letters():
    """The DP against the literal generator on every multiplicity vector
    with at most 11 letters: 2048 vectors, heterogeneous and in every
    symbol order."""
    vectors = [MultiplicityVector(c) for t in range(12) for c in compositions(t)]
    assert len(vectors) == 2048
    for mv in vectors:
        assert count_ordered_carlitz(mv) == sum(1 for _ in enumerate_ordered_carlitz(mv)), mv


def test_ordered_counts_over_symbol_orders_sum_to_total():
    """Each Carlitz word has one first-occurrence order, so summing the
    ordered count over every permutation of the symbols gives the total
    count: the DP against phi and the profile DP."""
    rng = random.Random(20170)
    for _ in range(200):
        mults = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 5)))
        orders = sum(
            count_ordered_carlitz(MultiplicityVector(perm))
            for perm in itertools.permutations(mults)
        )
        assert orders == phi_count(mults), mults
        assert orders == count_carlitz_total(MultiplicityVector(mults)), mults


def test_count_total_known_values():
    assert count_carlitz_total(MultiplicityVector.uniform(2, 3)) == 30
    assert count_carlitz_total(MultiplicityVector.uniform(3, 3)) == 174
    assert count_carlitz_total(MultiplicityVector.uniform(1, 4)) == 24


def test_size_limits_are_enforced():
    # The DPs are polynomial and take any size: 25 letters, past the
    # enumeration's default limit of 24, with no argument.
    big = MultiplicityVector.uniform(5, 5)
    total = phi_count((5,) * 5)
    assert count_ordered_carlitz(big) == total // factorial(5)
    assert count_carlitz_total(big) == total
    # The exponential oracles refuse by default...
    with pytest.raises(SizeLimitError):
        next(enumerate_ordered_carlitz(big))
    with pytest.raises(SizeLimitError):
        count_carlitz_by_filter(MultiplicityVector.uniform(3, 5))
    # ...and explicit limits override the defaults, in both directions.
    for limit in (25, None):
        first = next(enumerate_ordered_carlitz(big, limit=limit))
        assert is_carlitz(first) and is_ordered(first, big)
    with pytest.raises(SizeLimitError):
        next(enumerate_ordered_carlitz(MultiplicityVector.uniform(2, 2), limit=3))
    # 15 letters, past the filter's default of 14, yet only C(15, 7) words.
    assert count_carlitz_by_filter(MultiplicityVector((8, 7)), limit=15) == 1
    assert count_carlitz_by_filter(MultiplicityVector((8, 7)), limit=None) == 1
    with pytest.raises(SizeLimitError):
        count_carlitz_by_filter(MultiplicityVector.uniform(2, 2), limit=3)


# Multiplicity vectors small enough for the naive filter: bounded total
# length and a bounded permutation count so the slow oracle stays fast.
small_mvs = (
    st.lists(st.integers(1, 4), min_size=0, max_size=6)
    .map(tuple)
    .filter(lambda m: sum(m) <= 12 and multinomial(sum(m), m) <= 20000)
    .map(MultiplicityVector)
)


@given(small_mvs)
@settings(max_examples=60, deadline=None)
def test_dp_total_matches_naive_filter(mv):
    """The memoized DP and the generate-and-filter oracle agree."""
    assert count_carlitz_total(mv) == count_carlitz_by_filter(mv)


@given(st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_total_is_factorial_times_ordered(k, n):
    """For k copies each of n symbols: total = n! * ordered."""
    if k * n > 14:
        n = 14 // k
    mv = MultiplicityVector.uniform(k, n)
    assert count_carlitz_total(mv) == factorial(n) * count_ordered_carlitz(mv)


@given(small_mvs)
@settings(max_examples=40, deadline=None)
def test_enumerated_words_are_valid_and_counted(mv):
    """Every emitted word is Carlitz, ordered, uses exactly mv, and the
    emission count equals count_ordered_carlitz."""
    seen = 0
    for w in enumerate_ordered_carlitz(mv):
        seen += 1
        assert is_carlitz(w)
        assert is_ordered(w, mv)
    assert seen == count_ordered_carlitz(mv)


@given(small_mvs)
@settings(max_examples=40, deadline=None)
def test_total_count_is_relabeling_invariant(mv):
    shuffled = MultiplicityVector(tuple(reversed(mv.mults)))
    rotated = MultiplicityVector(mv.mults[1:] + mv.mults[:1]) if mv.mults else mv
    base = count_carlitz_total(mv)
    assert count_carlitz_total(shuffled) == base
    assert count_carlitz_total(rotated) == base


@given(small_mvs)
@settings(max_examples=40, deadline=None)
def test_total_bounded_by_all_multipermutations(mv):
    assert 0 <= count_carlitz_total(mv) <= multinomial(mv.total, mv.mults)
