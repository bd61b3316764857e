"""Tests for the P-recursive engines: fixed values, cross-method
identities, heterogeneous oracle agreement, and fault injection on the
checked divisions."""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import pytest

from carlitz import recurrences
from carlitz.exact import EXACT, InexactDivisionError, exact_div, factorial
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
    prime_stream,
    state,
    states,
)
from carlitz.words import MultiplicityVector, count_ordered_carlitz

A2_PRIME_ROW = [1, 0, 1, 5, 36, 329, 3655]
A3_PRIME_ROW = [1, 0, 1, 29, 1721, 163386, 22831355]


def fourterm_fraction_reference(n_max):
    """[a'_3(0), ..., a'_3(n_max)] stepped with the paper's fractional
    four-term coefficients p_{n+1} = lam p_n + mu p_{n-1} + nu p_{n-2},
    independently of the library's cleared integer form; every step must
    land on an integer."""
    p = [1, 0, 1]
    for n in range(2, n_max):
        lam = Fraction(9 * n**2 + 9 * n + 8, 2) + Fraction(2, n)
        mu = (6 * n + 3) - Fraction(4, n)
        nu = -2 - Fraction(2, n)
        value = lam * p[n] + mu * p[n - 1] + nu * p[n - 2]
        assert value.denominator == 1, f"four-term step at n={n} gave {value}"
        p.append(value.numerator)
    return p[: n_max + 1]


def test_a2_prime_values():
    assert prime(2, 2) == 1
    assert prime(2, 3) == 5
    assert prime(2, 6) == 3655
    assert list(prime_stream(2, 6)) == A2_PRIME_ROW


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
    assert fourterm_fraction_reference(6) == A3_PRIME_ROW
    assert fourterm_fraction_reference(40) == a3_prime_fourterm_range(40)


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
    for n, p in enumerate(prime_stream(2, 60)):
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
    assert value == list(prime_stream(2, 3000))[-1]
    assert value > 0


# The three-term step has no division of its own; written over 2 as
# p_{n+1} = ((4n+2) p_n + 2 p_{n-1}) / 2, (4n+2) -> (4n+3) makes the
# halving inexact, and the stepping loop must let that error through.
def _flipped_a2_step(n, p_prev, p):
    p_next = exact_div((4 * n + 3) * p + 2 * p_prev, 2)
    return (p_next,), (p, p_next)


# (3n+3) -> (3n+2) in the p-update makes the halving inexact.
def _flipped_coupled3_step(n, p_prev, p, q_prev):
    q = (3 * n + 2) * p + 2 * q_prev
    p_next = exact_div((3 * n + 2) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
    return (p, q), (p, p_next, q)


# (16n+6) -> (16n+7) makes the q halving inexact.
def _flipped_coupled4_step(n, p_prev, p, q_prev, r_prev):
    r = (4 * n + 3) * p + 3 * q_prev
    q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 7) * p, 2)
    p_next = exact_div(
        (4 * n + 1) * q
        + 3 * (10 * q_prev - r + 4 * r_prev + (6 * n + 7) * p + p_prev),
        3,
    )
    return (p, q, r), (p, p_next, q, r)


def test_a2_rejects_flipped_coefficient(monkeypatch):
    monkeypatch.setattr(recurrences, "_a2_step", _flipped_a2_step)
    with pytest.raises(InexactDivisionError):
        prime(2, 10)


def test_coupled3_rejects_flipped_coefficient(monkeypatch):
    monkeypatch.setattr(recurrences, "_coupled3_step", _flipped_coupled3_step)
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
        p_next = exact_div(num, 2 * n)
        return (p_next,), (p_back1, p, p_next)

    monkeypatch.setattr(recurrences, "_fourterm_step", broken)
    with pytest.raises(InexactDivisionError):
        a3_prime_fourterm(10)


def test_coupled4_rejects_flipped_coefficient(monkeypatch):
    monkeypatch.setattr(recurrences, "_coupled4_step", _flipped_coupled4_step)
    monkeypatch.setattr(recurrences, "_oracle_checked", {"k=4 coupled"})
    with pytest.raises(InexactDivisionError):
        state(4, 10)


def _wrong_coupled4_step(n, p_prev, p, q_prev, r_prev):
    r = (4 * n + 2) * p + 3 * q_prev
    q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 6) * p, 2)
    return (p, q, r), (p, p, q, r)


def test_self_check_catches_wrong_k4_step(monkeypatch):
    # A plausible-looking wrong step that still divides exactly at the
    # start is caught by the startup comparison with the word oracle.
    monkeypatch.setattr(recurrences, "_coupled4_step", _wrong_coupled4_step)
    monkeypatch.setattr(recurrences, "_oracle_checked", set())
    with pytest.raises(SelfCheckError, match="word oracle"):
        state(4, 5)


def test_negative_emitted_count_is_rejected(monkeypatch):
    # A step yielding a negative count must be refused even though every
    # division succeeded, before any oracle comparison sees it.
    negative_steps = [
        ("_a2_step", lambda n, p_prev, p: ((-5,), (p, -5)), lambda: prime(2, 3)),
        ("_coupled3_step",
         lambda n, p_prev, p, q_prev: ((p, (3 * n + 2) * p + 2 * q_prev),
                                       (p, -5, (3 * n + 2) * p + 2 * q_prev)),
         lambda: state(3, 3)),
        ("_fourterm_step", lambda n, p_back2, p_back1, p: ((-5,), (p_back1, p, -5)),
         lambda: a3_prime_fourterm(3)),
        ("_coupled4_step",
         lambda n, p_prev, p, q_prev, r_prev: ((p, q_prev, -5), (p, 1, q_prev, r_prev)),
         lambda: state(4, 3)),
    ]
    for seam, negative, call in negative_steps:
        with monkeypatch.context() as patch:
            patch.setattr(recurrences, seam, negative)
            with pytest.raises(SelfCheckError, match="negative count"):
                call()


def _wrong_a2_step(n, p_prev, p):
    p_next = (2 * n + 1) * p + p_prev + p  # a'_2(3) becomes 6, not 5
    return (p_next,), (p, p_next)


def _wrong_coupled3_step(n, p_prev, p, q_prev):
    q = (3 * n + 2) * p + 2 * q_prev + 2 * p
    p_next = exact_div((3 * n + 3) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
    return (p, q), (p, p_next, q)


def _wrong_fourterm_step(n, p_back2, p_back1, p):
    num = (
        (9 * n**3 + 9 * n**2 + 8 * n + 4) * p
        + (12 * n**2 + 6 * n - 8) * p_back1
        - (4 * n + 4) * p_back2
        + 2 * n * p
    )
    p_next = exact_div(num, 2 * n)
    return (p_next,), (p_back1, p, p_next)


@pytest.mark.parametrize(
    "seam, wrong, call",
    [
        ("_a2_step", _wrong_a2_step, lambda: prime(2, 3)),
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
    with pytest.raises(SelfCheckError, match="word oracle"):
        call()


@pytest.mark.parametrize(
    "entry_points, width",
    [([partial(f, k) for f in (state, states, prime, prime_stream)], k - 1)
     for k in (2, 3, 4)]
    + [([a3_prime_fourterm, a3_prime_fourterm_range], 1)],
    ids=["k2", "k3-coupled", "k4-coupled", "k3-fourterm"],
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


def _negative_a2_step(n, p_prev, p):
    return (-5,), (p, -5)


def _negative_coupled3_step(n, p_prev, p, q_prev):
    q = (3 * n + 2) * p + 2 * q_prev
    return (p, q), (p, -5, q)


def _negative_coupled4_step(n, p_prev, p, q_prev, r_prev):
    return (p, q_prev, -5), (p, 1, q_prev, r_prev)


@pytest.mark.parametrize("seam, step, k, error, match", [
    ("_a2_step", _flipped_a2_step, 2, InexactDivisionError, "not divisible"),
    ("_coupled3_step", _flipped_coupled3_step, 3, InexactDivisionError, "not divisible"),
    ("_coupled4_step", _flipped_coupled4_step, 4, InexactDivisionError, "not divisible"),
    ("_a2_step", _wrong_a2_step, 2, SelfCheckError, "word oracle"),
    ("_coupled3_step", _wrong_coupled3_step, 3, SelfCheckError, "word oracle"),
    ("_coupled4_step", _wrong_coupled4_step, 4, SelfCheckError, "word oracle"),
    ("_a2_step", _negative_a2_step, 2, SelfCheckError, "negative count"),
    ("_coupled3_step", _negative_coupled3_step, 3, SelfCheckError, "negative count"),
    ("_coupled4_step", _negative_coupled4_step, 4, SelfCheckError, "negative count"),
], ids=[f"{kind}-k{k}" for kind in ("flipped", "wrong", "negative") for k in (2, 3, 4)])
def test_planted_mutations_raise_in_exact_decimal(monkeypatch, seam, step, k, error, match):
    monkeypatch.setattr(recurrences, seam, step)
    monkeypatch.setattr(recurrences, "_oracle_checked", set())
    with localcontext(EXACT), pytest.raises(error, match=match):
        list(prime_stream(k, 10, Decimal(1)))


@pytest.mark.parametrize("key", [2, 3, 4, "four-term"])
def test_decimal_engine_emits_the_int_counts_as_plain_integers(key):
    # Every count of every state (p, q and r), not only p: no signed zero
    # (it would print "-0") and no exponent (it would print as 1E+3).
    with localcontext(EXACT):
        counts = list(recurrences._upto(recurrences._engine(key, Decimal(1)), 400))
    assert counts == list(recurrences._upto(recurrences._engine(key), 400))
    for state_counts in counts:
        for c in state_counts:
            assert isinstance(c, Decimal)
            assert (c.as_tuple().sign, c.as_tuple().exponent) == (0, 0)
