"""Exact arithmetic building blocks: factorials (one n! is
math.factorial, which keeps nothing; factorials() tabulates 0!..n!),
multinomials, weak compositions, and dense integer polynomials with the
factorial substitution t^m -> m!, also of a product of powers (phi_power).

Everything here is mathematically exact.  Integers are Python ints
(arbitrary precision), polynomials are lists of them, and every
division that the mathematics promises to be exact is checked: a
nonzero remainder raises InexactDivisionError instead of silently
truncating.

The one other number type is decimal.Decimal under the EXACT context,
which the CLI's `table` and `oeis-check` compute the recurrence route
in.  Decimal integers print and parse in linear time, where CPython's
int <-> str conversion is quadratic in the digits.  They stay exact:
EXACT's precision and exponent range are the largest the decimal module
allows, and it traps every rounding, so a value that would not fit
raises instead of being rounded; exact_div takes Decimals too and still
checks every remainder.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from math import factorial
from operator import mul
from typing import Iterable, Iterator, Sequence


def __getattr__(name: str):
    """EXACT: integer arithmetic in decimal.Decimal with nothing ever
    rounded, since any result that would need rounding raises
    (decimal.Inexact, Rounded, ...).  Enter it with
    decimal.localcontext(EXACT), which restores the caller's context
    afterwards.  Add, subtract, multiply and divide by exact_div only:
    true division (/) at this precision asks for more memory than there
    is.  Built when first asked for, so that importing this module does
    not import decimal (a few ms of every command's start-up)."""
    if name != "EXACT":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import decimal

    global EXACT
    EXACT = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
               decimal.DivisionByZero, decimal.Overflow],
    )
    return EXACT


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder.

    Raised instead of rounding.  In this package such a failure means a
    counting identity has been violated (or a coefficient mistyped), so
    it must surface loudly.
    """


def exact_div(a: int, b: int) -> int:
    """Divide a by b, requiring zero remainder; ints, or Decimal integers
    under EXACT, whose divmod is exact too."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError(f"{a} is not divisible by {b} (remainder {r})")
    return q


def factorials(n_max: int) -> list[int]:
    """[0!, 1!, ..., n_max!] by a running product, O(1) each, for callers
    that look up many factorials; one n! is math.factorial(n)."""
    if n_max < 0:
        raise ValueError(f"factorial of negative {n_max}")
    return list(accumulate(range(1, n_max + 1), mul, initial=1))


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...) for parts summing to n."""
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts!r}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts!r} sum to {sum(parts)}, expected {n}")
    denom = 1
    for p in parts:
        denom *= factorial(p)
    return exact_div(factorial(n), denom)


def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of n into m ordered nonnegative parts.

    Emitted in colexicographic order (last coordinate slowest), e.g.
    compositions(2, 2) yields (2,0), (1,1), (0,2).  There are
    binomial(n+m-1, m-1) of them.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m == 1:
        yield (n,)
        return
    for last in range(n + 1):
        for rest in compositions(n - last, m - 1):
            yield rest + (last,)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials as dense coefficient lists.

    a[i] is the coefficient of t**i.  Integers have no zero divisors, so
    nonzero leading coefficients stay nonzero and no stripping is needed.
    """
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def phi(p: Sequence[int]) -> int:
    """Factorial substitution: replace every t**m by m! and sum.

    Linear in p.  Evaluated by Horner's rule, c_0 + 1*(c_1 + 2*(c_2 +
    ...)), so each step multiplies by a small m instead of by m!.  On an
    integer polynomial the value is an integer; the caller divides out
    whatever scaling made the coefficients integral.
    """
    acc = 0
    for m in range(len(p) - 1, 0, -1):
        acc = (acc + p[m]) * m
    return acc + p[0] if p else 0


def phi_power(factors: Iterable[tuple[Sequence[int], int]]) -> int:
    """phi(prod of base**e) / V! over the (base, e) in factors, t**V the
    power of t dividing the product; each base's top coefficient is nonzero.

    With each base t^v R, R(0) != 0, and r R's coefficients reversed,
    F = prod r^e, s = prod r and h = sum of e r' s / r satisfy s F' = h F
    (J. C. P. Miller's power recurrence; Knuth, TAOCP Vol. 2, 4.7), so
        m s_0 q_m = sum over j = 1..w of (h_(j-1) + (j - m) s_j) q_(m-j),
    w = deg s, gives F's coefficients q_m in turn, one checked division
    each.  A Horner sum weighs q_m by (top - m)!/V!, top the product's
    degree, as it comes, so only w are held: O(w deg F) small steps.
    """
    s, h, q, deg, top = [1], [0], 1, 0, 0
    for base, e in factors:
        r = base[next(i for i, x in enumerate(base) if x):][::-1]
        dr = [j * x for j, x in enumerate(r)][1:]
        h = [a + e * b for a, b in zip_longest(poly_mul(h, r), poly_mul(dr, s), fillvalue=0)]
        s = poly_mul(s, r)
        q, deg, top = q * r[0] ** e, deg + (len(r) - 1) * e, top + (len(base) - 1) * e
    lead, *tail = s
    grow = [hj + j * sj for j, (hj, sj) in enumerate(zip(h, tail), 1)]
    window = [q] + [0] * (len(tail) - 1)  # q_(m-1), ..., q_(m-w)
    acc = q
    for m in range(1, deg + 1):
        q = exact_div(sum([(g - m * sj) * x for g, sj, x in zip(grow, tail, window)]), m * lead)
        window = [q, *window[:-1]]
        acc = acc * (top - m + 1) + q
    return acc
