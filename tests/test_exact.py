"""Tests for the exact-arithmetic building blocks."""

import decimal
from decimal import Decimal, localcontext
from itertools import zip_longest
from math import comb
from math import factorial as math_factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlitz.exact import (
    EXACT,
    InexactDivisionError,
    compositions,
    exact_div,
    factorial,
    factorials,
    multinomial,
    phi,
    poly_mul,
)

# 6 * (t^3/6 - t^2 + t), the integer-scaled k=3 base, reused across phi
# fixtures.
CUBIC = [0, 6, -6, 1]


def test_exact_div():
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    assert exact_div(0, 7) == 0


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        exact_div(7, 2)


def test_exact_div_on_decimals_under_exact():
    with localcontext(EXACT):
        assert exact_div(Decimal(-12), 4) == -3
        big = Decimal(3) ** 20000  # 9543 digits, past any default precision
        assert int(exact_div(big * 7, 7)) == 3**20000
        with pytest.raises(InexactDivisionError):
            exact_div(big, 2)


# True division is not among them: at EXACT's precision even 1 / 3 asks
# for more memory than there is, so the package divides only by exact_div.
@pytest.mark.parametrize("operation", [
    lambda: Decimal("1.5").to_integral_exact(),
    lambda: Decimal("1.25").quantize(Decimal("0.1")),
    lambda: Decimal(5) // 0,
    lambda: Decimal("Infinity") - Decimal("Infinity"),
    lambda: Decimal("1E+999999999999999999") * 10,
], ids=["inexact", "rounded", "zero", "invalid", "overflow"])
def test_exact_context_traps_every_rounding(operation):
    with localcontext(EXACT), pytest.raises(decimal.DecimalException):
        operation()


def test_exact_context_keeps_integers_exact():
    with localcontext(EXACT):
        value = Decimal(1)
        for m in range(1, 3001):
            value *= m
        assert value.as_tuple().exponent == 0
        assert int(value) == math_factorial(3000)


def test_factorial_known_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(9) == 362880


def test_factorial_recurrence():
    for n in range(1, 201):
        assert factorial(n) == n * factorial(n - 1)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


@pytest.mark.parametrize("n_max", [0, 1, 7, 4106])
def test_factorials_is_a_running_product(n_max):
    table = factorials(n_max)
    assert len(table) == n_max + 1
    assert table[0] == 1
    assert all(table[m] == m * table[m - 1] for m in range(1, n_max + 1))
    assert table[-1] == math_factorial(n_max)
    with pytest.raises(ValueError):
        factorials(-1)


def test_multinomial_known_values():
    assert multinomial(3, [1, 1, 1]) == 6
    assert multinomial(3, [3, 0, 0]) == 1
    assert multinomial(4, [2, 2]) == 6


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(3, [1, 1])
    with pytest.raises(ValueError):
        multinomial(3, [4, -1])


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5))
@settings(max_examples=100)
def test_multinomial_symmetric(parts):
    """Permuting the parts never changes the value; [n] alone gives 1."""
    n = sum(parts)
    value = multinomial(n, parts)
    assert multinomial(n, list(reversed(parts))) == value
    assert multinomial(n, sorted(parts)) == value
    assert multinomial(n, [n]) == 1


def test_compositions_fixed_order():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert len(list(compositions(3, 3))) == 10


@given(st.integers(0, 9), st.integers(1, 5))
@settings(max_examples=100)
def test_compositions_complete_and_distinct(n, m):
    items = list(compositions(n, m))
    assert len(items) == comb(n + m - 1, m - 1)
    assert len(set(items)) == len(items)
    for item in items:
        assert len(item) == m
        assert sum(item) == n
        assert all(part >= 0 for part in item)


# Polynomials are integer coefficient lists (the former RationalPoly class
# scaled to integers); the two tests below keep its test names.
def test_rational_poly_arithmetic():
    t = [0, 1]
    assert poly_mul(t, t) == [0, 0, 1]
    assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert poly_mul([5], [1, 2]) == [5, 10]
    assert poly_mul([], [1, 2]) == []
    assert poly_mul(CUBIC, [1]) == CUBIC


def power(a, e):
    out = [1]
    for _ in range(e):
        out = poly_mul(a, out)
    return out


def test_rational_poly_pow():
    assert power(CUBIC, 0) == [1]
    assert power(CUBIC, 1) == CUBIC
    # 6^2 times the square of t^3/6 - t^2 + t.
    assert power(CUBIC, 2) == [0, 0, 36, -72, 48, -12, 1]


small_polys = st.lists(st.integers(-6, 6), max_size=5)


@given(small_polys, st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_pow_splits_into_products(a, i, j):
    """a**(i+j) == a**i * a**j for small random polynomials."""
    if i + j > 8:
        i, j = i % 4, j % 4
    assert power(a, i + j) == poly_mul(power(a, i), power(a, j))


def test_phi_fixed_points():
    assert phi([1]) == 1
    assert phi(CUBIC) == 0
    assert phi(poly_mul(CUBIC, CUBIC)) == 2 * 6**2
    assert phi([]) == 0


def add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


@given(st.lists(st.integers(-(10**30), 10**30), max_size=40), st.integers(0, 5))
@example([], 0)
@example([7], 0)
@example([-3], 4)
@example([0, 0, 5], 3)
@settings(max_examples=200)
def test_phi_matches_the_factorial_sum(p, zeros):
    """Horner's rule gives the defining sum of c_m * m!, trailing zeros included."""
    p = p + [0] * zeros
    assert phi(p) == sum(c * math_factorial(m) for m, c in enumerate(p))


@given(small_polys, small_polys)
@settings(max_examples=100)
def test_phi_is_linear(a, b):
    assert phi(add(a, b)) == phi(a) + phi(b)
