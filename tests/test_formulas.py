"""Tests for the closed-form counts: table rows, per-term traces, the
phi route, and agreement with the word oracle."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import formulas
from carlitz.exact import InexactDivisionError, exact_div, factorial, multinomial
from carlitz.formulas import (
    a2_inclusion_exclusion,
    a3_inclusion_exclusion,
    a4_inclusion_exclusion,
    phi_base,
    phi_count,
    phi_count_stream,
    upper_bound,
)
from carlitz.recurrences import prime, prime_stream
from carlitz.words import (
    MultiplicityVector,
    count_carlitz_by_filter,
    count_carlitz_total,
)

A1_ROW = [1, 1, 2, 6, 24, 120, 720]
A2_ROW = [1, 0, 2, 30, 864, 39480, 2631600]
A3_ROW = [1, 0, 2, 174, 41304, 19606320, 16438575600]
A4_ROW = [1, 0, 2, 1092, 2265024, 11804626080]


def test_a1_is_factorial():
    assert [formulas.inclusion_exclusion(1, n) for n in range(7)] == A1_ROW


def test_a2_row():
    assert [a2_inclusion_exclusion(n) for n in range(7)] == A2_ROW


def test_a3_row():
    assert [a3_inclusion_exclusion(n) for n in range(7)] == A3_ROW


def test_a4_row():
    assert [a4_inclusion_exclusion(n) for n in range(6)] == A4_ROW


def test_rejects_negative_n():
    for fn in (partial(formulas.inclusion_exclusion, 1), a2_inclusion_exclusion,
               a3_inclusion_exclusion, a4_inclusion_exclusion):
        with pytest.raises(ValueError):
            fn(-1)
    for k in range(1, 5):
        with pytest.raises(ValueError):
            formulas.inclusion_exclusion_range(k, -1)


def test_a2_term_trace_n3():
    terms = list(formulas.terms(2, 3))
    assert [t.composition for t in terms] == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert [t.value for t in terms] == [90, -90, 36, -6]
    assert sum(t.value for t in terms) == 30


def test_a3_term_trace_n3():
    terms = list(formulas.terms(3, 3))
    assert len(terms) == 10
    assert terms[0].composition == (3, 0, 0)
    assert terms[0].value == 1680
    assert sum(t.value for t in terms) == 174


@pytest.mark.parametrize("k", [2, 3, 4])
def test_terms_match_fast_sum(k):
    """The independent-term stream and the one-n point agree."""
    for n in range({2: 41, 3: 21, 4: 9}[k]):
        assert sum(t.value for t in formulas.terms(k, n)) == formulas.inclusion_exclusion(k, n)


@pytest.mark.parametrize("k,n", [(0, 3), (1, 3), (5, 3), (2, -1)])
def test_terms_rejects_bad_input_at_once(k, n):
    """`count --trace` catches this ValueError around the call alone, so it
    must come from the call, not from the first next()."""
    with pytest.raises(ValueError):
        formulas.terms(k, n)


def test_wrong_pattern_divisor_raises(monkeypatch):
    # A divisor that does not divide its term must abort the term stream,
    # the point sum and the range table rather than round, in every row,
    # the 1-block row included.  The range tabulates all five rows and
    # makes one checked division per n, by the lcm of their divisors.
    rows = formulas.PATTERNS[4]
    for index, wrong in ((0, (4, 48, 1)), (1, (3, 4, -1)), (2, (2, 4, 1)), (3, (2, 4, 1)), (4, (1, 2, -1))):
        monkeypatch.setitem(formulas.PATTERNS, 4, rows[:index] + (wrong,) + rows[index + 1:])
        with pytest.raises(InexactDivisionError):
            list(formulas.terms(4, 1))
        with pytest.raises(InexactDivisionError):
            a4_inclusion_exclusion(1)
        with pytest.raises(InexactDivisionError):
            formulas.inclusion_exclusion_range(4, 1)


@pytest.mark.parametrize("k,index,wrong", [
    (2, 0, (2, 4, 1)), (2, 1, (1, 2, -1)),
    (3, 0, (3, 12, 1)), (3, 1, (2, 3, -1)), (3, 2, (1, 2, 1)),
])
def test_wrong_pattern_row_raises_in_range(monkeypatch, k, index, wrong):
    # The range's one division per n, by D^n, must reject each of these
    # rows, the 1-block rows included; so must the point, which reads
    # the same fused step, at a single n.
    rows = formulas.PATTERNS[k]
    monkeypatch.setitem(formulas.PATTERNS, k, rows[:index] + (wrong,) + rows[index + 1:])
    with pytest.raises(InexactDivisionError):
        formulas.inclusion_exclusion_range(k, 5)
    with pytest.raises(InexactDivisionError):
        formulas.inclusion_exclusion(k, 1)


def test_k4_range_matches_the_recurrence_to_200():
    """The fused five-row step, far past the other k = 4 range checks."""
    values = formulas.inclusion_exclusion_range(4, 200)
    assert len(values) == 201
    for n, (value, ordered) in enumerate(zip(values, prime_stream(4, 200))):
        assert value == factorial(n) * ordered


@pytest.mark.parametrize("k,n_max", [(2, 40), (3, 24), (4, 12)])
def test_range_matches_term_streams(k, n_max):
    """The range table equals the sum of the literal terms at every n."""
    assert formulas.inclusion_exclusion_range(k, n_max) == [
        sum(t.value for t in formulas.terms(k, n)) for n in range(n_max + 1)
    ]


@pytest.mark.parametrize("k,n_max", [(1, 60), (2, 60), (3, 40), (4, 16)])
def test_range_matches_point_sums(k, n_max):
    """The range table and the one-n point agree at every n."""
    assert formulas.inclusion_exclusion_range(k, n_max) == [
        formulas.inclusion_exclusion(k, n) for n in range(n_max + 1)
    ]


@pytest.mark.parametrize("k,n", [(2, 3000), (3, 1000), (4, 1000)])
def test_point_matches_the_recurrence_far_out(k, n):
    """One deep n from the step's n-th power, against the recurrence route."""
    assert formulas.inclusion_exclusion(k, n) == factorial(n) * prime(k, n)


@pytest.mark.parametrize("k,n_max", [(2, 150), (3, 80), (4, 40)])
def test_range_matches_phi(k, n_max):
    assert formulas.inclusion_exclusion_range(k, n_max) == list(phi_count_stream(k, n_max))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_patterns_sum_to_laguerre_base(k):
    """k! * sum of sign * t^blocks / divisor over the rows is k! * L_k(t)."""
    coeffs = [0] * (k + 1)
    for blocks, divisor, sign in formulas.PATTERNS[k]:
        coeffs[blocks] += sign * exact_div(factorial(k), divisor)
    assert coeffs == phi_base(k)


def test_a4_term_compositions_cover_everything():
    terms = list(formulas.terms(4, 4))
    comps = [t.composition for t in terms]
    assert len(set(comps)) == len(comps) == 70
    assert all(sum(c) == 4 for c in comps)


def test_phi_base_small_k():
    assert phi_base(1) == [0, 1]
    assert phi_base(2) == [0, -2, 1]
    assert phi_base(3) == [0, 6, -6, 1]
    assert phi_base(4) == [0, -24, 36, -12, 1]
    with pytest.raises(ValueError):
        phi_base(0)


def test_phi_route_reproduces_each_k():
    """phi of the n-th power of each base equals the k-th count."""
    for n in range(8):
        assert phi_count((1,) * n) == formulas.inclusion_exclusion(1, n)
        assert phi_count((2,) * n) == a2_inclusion_exclusion(n)
        assert phi_count((3,) * n) == a3_inclusion_exclusion(n)
        assert phi_count((4,) * n) == a4_inclusion_exclusion(n)
    for k, row in ((1, A1_ROW), (2, A2_ROW), (3, A3_ROW), (4, A4_ROW)):
        assert list(phi_count_stream(k, len(row) - 1)) == row


def test_a4_phi_matches_sum():
    for n in range(26):
        assert phi_count((4,) * n) == a4_inclusion_exclusion(n)


def test_a4_phi_range_is_incremental_and_consistent():
    values = list(phi_count_stream(4, 12))
    assert values == [phi_count((4,) * n) for n in range(13)]
    with pytest.raises(ValueError):
        phi_count_stream(4, -1)


def test_a4_phi_rejects_corrupted_base(monkeypatch):
    # A wrong non-leading coefficient leaves phi of the product
    # indivisible by 24^n, which must abort loudly rather than round.
    # (+1 on the leading coefficient stays divisible for n <= 3.)
    real = formulas.phi_base

    def corrupted(k):
        base = real(k)
        base[1] += 1
        return base

    monkeypatch.setattr(formulas, "phi_base", corrupted)
    with pytest.raises(InexactDivisionError):
        phi_count((4,))
    with pytest.raises(InexactDivisionError):
        list(phi_count_stream(4, 3))


@st.composite
def multiplicity_vectors(draw):
    """0-6 symbols with multiplicities 1-5, at most 12 letters in all."""
    mults = []
    for _ in range(draw(st.integers(0, 6))):
        room = 12 - sum(mults)
        if room < 1:
            break
        mults.append(draw(st.integers(1, min(5, room))))
    return mults


@given(multiplicity_vectors())
@settings(max_examples=100, deadline=None)
def test_phi_count_matches_oracles_on_heterogeneous_multisets(mults):
    """phi on a non-uniform multiset equals the DP, and the naive filter
    wherever enumerating every multiset permutation stays cheap."""
    mv = MultiplicityVector(mults)
    value = phi_count(mults)
    assert value == count_carlitz_total(mv)
    if multinomial(mv.total, mults) <= 20000:
        assert value == count_carlitz_by_filter(mv)


def test_upper_bound():
    assert upper_bound(2, 3) == 90
    assert upper_bound(3, 3) == 1680
    for n in range(6):
        assert upper_bound(1, n) == factorial(n)
    with pytest.raises(ValueError):
        upper_bound(0, 3)


@given(st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_counts_between_zero_and_upper_bound(n):
    assert 0 <= a2_inclusion_exclusion(n) <= upper_bound(2, n)
    if n <= 20:
        assert 0 <= a3_inclusion_exclusion(n) <= upper_bound(3, n)
    if n <= 12:
        assert 0 <= a4_inclusion_exclusion(n) <= upper_bound(4, n)


@given(st.integers(0, 40))
@settings(max_examples=50, deadline=None)
def test_factorial_divides_every_count(n):
    """n! divides a_k(n): the ordered counts are integers."""
    exact_div(a2_inclusion_exclusion(n), factorial(n))
    if n <= 25:
        exact_div(a3_inclusion_exclusion(n), factorial(n))
    if n <= 15:
        exact_div(a4_inclusion_exclusion(n), factorial(n))


def test_formulas_match_word_oracle():
    for n in range(7):
        assert a2_inclusion_exclusion(n) == count_carlitz_total(
            MultiplicityVector.uniform(2, n)
        )
    for n in range(5):
        assert a3_inclusion_exclusion(n) == count_carlitz_total(
            MultiplicityVector.uniform(3, n)
        )
    for n in range(4):
        assert a4_inclusion_exclusion(n) == count_carlitz_total(
            MultiplicityVector.uniform(4, n)
        )
