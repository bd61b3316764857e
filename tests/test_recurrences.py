"""Tests for the P-recursive engines: fixed values, cross-method
identities, heterogeneous oracle agreement, and fault injection on the
checked divisions."""

from functools import partial

import pytest

from carlitz import recurrences
from carlitz.exact import InexactDivisionError, exact_div, factorial
from carlitz.formulas import (
    a2_inclusion_exclusion,
    a3_inclusion_exclusion,
    a4_inclusion_exclusion,
)
from carlitz.recurrences import (
    SelfCheckError,
    State,
    a3_prime_fourterm,
    a3_prime_fourterm_range,
    prime,
    prime_range,
    state,
    states,
)
from carlitz.words import MultiplicityVector, count_ordered_carlitz

A2_PRIME_ROW = [1, 0, 1, 5, 36, 329, 3655]
A3_PRIME_ROW = [1, 0, 1, 29, 1721, 163386, 22831355]


def test_a2_prime_values():
    assert prime(2, 2) == 1
    assert prime(2, 3) == 5
    assert prime(2, 6) == 3655
    assert prime_range(2, 6) == A2_PRIME_ROW


def test_a3_coupled_values():
    s = state(3, 2)
    assert (s.p, s.q) == (1, 8)
    s = state(3, 3)
    assert (s.p, s.q) == (29, 335)
    assert s.q == 11 * 29 + 2 * 8
    assert state(3, 5).p == 163386
    assert [s.p for s in states(3, 6)] == A3_PRIME_ROW


def test_a3_fourterm_values():
    assert a3_prime_fourterm(3) == 29
    assert a3_prime_fourterm(4) == 1721
    assert a3_prime_fourterm(6) == 22831355
    assert a3_prime_fourterm_range(6) == A3_PRIME_ROW


def test_a3_fourterm_rational_form_agrees():
    assert a3_prime_fourterm_range(40, rational=True) == a3_prime_fourterm_range(40)


def test_a3_fourterm_agrees_with_coupled():
    assert a3_prime_fourterm_range(60) == [s.p for s in states(3, 60)]


def test_a4_coupled_values():
    assert state(4, 0) == State(0, 1, 0, 0)
    s = state(4, 1)
    assert (s.p, s.q, s.r) == (0, 0, 0)
    s = state(4, 2)
    assert (s.p, s.q, s.r) == (1, 58, 11)
    s = state(4, 3)
    assert (s.p, s.q, s.r) == (182, 21255, 2904)
    assert state(4, 4).p == 94376


def test_a_from_ordered():
    """a_k(n) = n! * a'_k(n), the conversion the CLI applies to the
    recurrence route's ordered counts; that route rejects k outside 2..4
    (see test_cli)."""
    assert factorial(5) * state(3, 5).p == 19606320
    assert factorial(4) * prime(2, 4) == 864
    assert factorial(0) * state(4, 0).p == 1


def test_rejects_negative_index():
    for fn in (partial(prime, 2), partial(state, 3), a3_prime_fourterm, partial(state, 4)):
        with pytest.raises(ValueError):
            fn(-1)


def test_recurrences_match_inclusion_exclusion():
    for n, p in enumerate(prime_range(2, 60)):
        assert factorial(n) * p == a2_inclusion_exclusion(n)
    for s in states(3, 30):
        assert factorial(s.n) * s.p == a3_inclusion_exclusion(s.n)
    for s in states(4, 15):
        assert factorial(s.n) * s.p == a4_inclusion_exclusion(s.n)


def test_ordered_counts_divide_exactly():
    # The unordered sums divided by n! land exactly on the recurrences.
    for n in range(30):
        assert exact_div(a3_inclusion_exclusion(n), factorial(n)) == a3_prime_fourterm(n)


def test_heterogeneous_q_matches_oracle_k3():
    for s in states(3, 4):
        oracle = count_ordered_carlitz(MultiplicityVector.prefixed(2, 3, s.n))
        assert s.q == oracle


def test_heterogeneous_q_r_match_oracle_k4():
    for s in states(4, 3):
        assert s.q == count_ordered_carlitz(MultiplicityVector.prefixed(3, 4, s.n))
        assert s.r == count_ordered_carlitz(MultiplicityVector.prefixed(2, 4, s.n))


def test_every_state_matches_oracle_at_large_n():
    """Every state the engines emit, far past what enumeration reaches:
    the word oracle's DP is polynomial, so no limit is needed."""
    def oracle(mv):
        return count_ordered_carlitz(mv)

    for n in range(101):
        assert prime(2, n) == oracle(MultiplicityVector.uniform(2, n))
    for s in states(3, 30):
        assert s.p == oracle(MultiplicityVector.uniform(3, s.n))
        assert s.q == oracle(MultiplicityVector.prefixed(2, 3, s.n))
    for s in states(4, 16):
        assert s.p == oracle(MultiplicityVector.uniform(4, s.n))
        assert s.q == oracle(MultiplicityVector.prefixed(3, 4, s.n))
        assert s.r == oracle(MultiplicityVector.prefixed(2, 4, s.n))


def test_large_single_value_runs_iteratively():
    # Far beyond any recursion limit; also windowed, so this is cheap.
    value = prime(2, 3000)
    assert value == prime_range(2, 3000)[-1]
    assert value > 0


def test_coupled3_rejects_flipped_coefficient(monkeypatch):
    # (3n+3) -> (3n+2) in the p-update makes the halving inexact.
    def broken(n, p_prev, p, q_prev):
        q = (3 * n + 2) * p + 2 * q_prev
        p_next = exact_div((3 * n + 2) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
        return q, p_next

    monkeypatch.setattr(recurrences, "_coupled3_step", broken)
    with pytest.raises(InexactDivisionError):
        state(3, 10)


def test_fourterm_rejects_flipped_coefficient(monkeypatch):
    # (12n^2+6n-8) -> (12n^2+6n-7) breaks the division by 2n.
    def broken(n, p_back2, p_back1, p):
        num = (
            (9 * n**3 + 9 * n**2 + 8 * n + 4) * p
            + (12 * n**2 + 6 * n - 7) * p_back1
            - (4 * n + 4) * p_back2
        )
        return exact_div(num, 2 * n)

    monkeypatch.setattr(recurrences, "_fourterm_step", broken)
    with pytest.raises(InexactDivisionError):
        a3_prime_fourterm(10)


def test_coupled4_rejects_flipped_coefficient(monkeypatch):
    # (16n+6) -> (16n+7) makes the q halving inexact.
    def broken(n, p_prev, p, q_prev, r_prev):
        r = (4 * n + 3) * p + 3 * q_prev
        q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 7) * p, 2)
        p_next = exact_div(
            (4 * n + 1) * q
            + 3 * (10 * q_prev - r + 4 * r_prev + (6 * n + 7) * p + p_prev),
            3,
        )
        return r, q, p_next

    monkeypatch.setattr(recurrences, "_coupled4_step", broken)
    monkeypatch.setattr(recurrences, "_oracle_checked", {"k=4 coupled"})
    with pytest.raises(InexactDivisionError):
        state(4, 10)


def test_self_check_catches_wrong_k4_step(monkeypatch):
    # A plausible-looking wrong step that still divides exactly at the
    # start is caught by the startup comparison with the word oracle.
    def broken(n, p_prev, p, q_prev, r_prev):
        r = (4 * n + 2) * p + 3 * q_prev
        q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 6) * p, 2)
        return r, q, p

    monkeypatch.setattr(recurrences, "_coupled4_step", broken)
    monkeypatch.setattr(recurrences, "_oracle_checked", set())
    with pytest.raises(SelfCheckError):
        state(4, 5)


def test_negative_emitted_count_is_rejected(monkeypatch):
    # A step yielding a negative count must be refused even though every
    # division succeeded.
    def broken(n, p_prev, p, q_prev):
        return (3 * n + 2) * p + 2 * q_prev, -5

    monkeypatch.setattr(recurrences, "_coupled3_step", broken)
    with pytest.raises(SelfCheckError):
        state(3, 3)


def _wrong_a2_stream():
    return iter([(1,), (0,), (1,), (6,)])  # a'_2(3) is 5


def _wrong_coupled3_step(n, p_prev, p, q_prev):
    q = (3 * n + 2) * p + 2 * q_prev + 2 * p
    p_next = exact_div((3 * n + 3) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
    return q, p_next


def _wrong_fourterm_step(n, p_back2, p_back1, p):
    num = (
        (9 * n**3 + 9 * n**2 + 8 * n + 4) * p
        + (12 * n**2 + 6 * n - 8) * p_back1
        - (4 * n + 4) * p_back2
        + 2 * n * p
    )
    return exact_div(num, 2 * n)


def _wrong_coupled4_step(n, p_prev, p, q_prev, r_prev):
    r = (4 * n + 2) * p + 3 * q_prev
    q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 6) * p, 2)
    return r, q, p


@pytest.mark.parametrize(
    "seam, wrong, call",
    [
        ("_iter_a2_prime", _wrong_a2_stream, lambda: prime(2, 3)),
        ("_coupled3_step", _wrong_coupled3_step, lambda: state(3, 6)),
        ("_fourterm_step", _wrong_fourterm_step, lambda: a3_prime_fourterm(3)),
        ("_coupled4_step", _wrong_coupled4_step, lambda: state(4, 5)),
    ],
    ids=["k2", "k3-coupled", "k3-fourterm", "k4-coupled"],
)
def test_every_engine_catches_exactly_dividing_wrong_step(
    monkeypatch, seam, wrong, call
):
    # Each wrong step keeps every division exact, so only the comparison
    # of states 0..3 with the word oracle can notice it.
    monkeypatch.setattr(recurrences, seam, wrong)
    monkeypatch.setattr(recurrences, "_oracle_checked", set())
    with pytest.raises(SelfCheckError):
        call()


@pytest.mark.parametrize(
    "entry_points, width",
    [([partial(f, k) for f in (state, states, prime, prime_range)], k - 1)
     for k in (2, 3, 4)]
    + [([partial(f, rational=rational)
         for f in (a3_prime_fourterm, a3_prime_fourterm_range)], 1)
       for rational in (False, True)],
    ids=["k2", "k3-coupled", "k4-coupled", "k3-fourterm", "k3-fourterm-rational"],
)
def test_oracle_runs_once_per_engine(monkeypatch, entry_points, width):
    # Every entry point of one engine shares its single oracle comparison
    # of states 0..3, one oracle call per count in each state.
    calls = []
    real = recurrences.count_ordered_carlitz

    def counting(mv, *args, **kwargs):
        calls.append(mv)
        return real(mv, *args, **kwargs)

    monkeypatch.setattr(recurrences, "count_ordered_carlitz", counting)
    monkeypatch.setattr(recurrences, "_oracle_checked", set())
    for call in entry_points:
        call(40)
        assert len(calls) == 4 * width
