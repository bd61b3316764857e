"""Closed-form counts of Carlitz words over k copies each of n symbols.

Inclusion-exclusion sums for k = 2, 3, 4 over blocking patterns of each
symbol's copies: a composition (s, t, ...) records how many symbols have
their copies fully separated, glued into specific block shapes, and so
on; each pattern contributes a signed multinomial times a factorial of
the reduced word length divided by symmetry factors.

Independently, the factorial substitution phi (t^j -> j!) counts the
Carlitz words over any multiset (m_1, ..., m_r) as phi(prod L_{m_i}(t)).
Each factor is scaled by m_i! to integer coefficients, so the whole
route is integer polynomial products and one checked division by
prod m_i!.

Every division the identities promise to be exact is checked via
exact_div and raises InexactDivisionError on any remainder; a failure
here means a formula coefficient is wrong, and must never be rounded
away.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .exact import compositions, exact_div, factorial, multinomial, phi, poly_mul


class Term(NamedTuple):
    """One signed summand of an inclusion-exclusion sum.

    composition holds the blocking-pattern indices (s, t) for k=2,
    (s, t, u) for k=3, (s, t, u, v, w) for k=4; value is the signed
    integer contribution.
    """

    composition: tuple[int, ...]
    value: int


def a1(n: int) -> int:
    """Carlitz words over n distinct symbols, one copy each: all n! permutations."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return factorial(n)


def a2_terms(n: int) -> Iterator[Term]:
    """Signed terms of the k=2 sum, in composition order (s descending).

    Term at (s, t), s + t = n:  (-1)^t * C(n, s) * (2s+t)! / 2^s.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for s, t in compositions(n, 2):
        mag = multinomial(n, (s, t)) * exact_div(factorial(2 * s + t), 2**s)
        yield Term((s, t), -mag if t & 1 else mag)


def a2_inclusion_exclusion(n: int) -> int:
    """Number of Carlitz words over 2 copies each of n symbols."""
    return sum(t.value for t in a2_terms(n))


def a3_terms(n: int) -> Iterator[Term]:
    """Signed terms of the k=3 sum.

    Term at (s, t, u), s + t + u = n:
    (-1)^t * multinomial(n; s,t,u) * (3s+2t+u)! / 6^s.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for s, t, u in compositions(n, 3):
        mag = multinomial(n, (s, t, u)) * exact_div(
            factorial(3 * s + 2 * t + u), 6**s
        )
        yield Term((s, t, u), -mag if t & 1 else mag)


def a3_inclusion_exclusion(n: int) -> int:
    """Number of Carlitz words over 3 copies each of n symbols."""
    return sum(t.value for t in a3_terms(n))


def a4_terms(n: int) -> Iterator[Term]:
    """Signed terms of the k=4 sum, one per weak composition of n into 5.

    Term at (s, t, u, v, w), s + t + u + v + w = n:
    (-1)^(t+w) * multinomial(n; s,t,u,v,w) * (4s+3t+2u+2v+w)! / (24^s * 2^(v+t)).

    Each term is computed independently; a4_inclusion_exclusion uses a
    faster incremental scheme and is differentially tested against this
    stream.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for comp in compositions(n, 5):
        s, t, u, v, w = comp
        mag = multinomial(n, comp) * exact_div(
            factorial(4 * s + 3 * t + 2 * u + 2 * v + w), 24**s * 2 ** (v + t)
        )
        yield Term(comp, -mag if (t + w) & 1 else mag)


def a4_inclusion_exclusion(n: int) -> int:
    """Number of Carlitz words over 4 copies each of n symbols.

    Same sum as a4_terms, evaluated with an incremental innermost loop:
    for fixed (s, t, u) the terms over v (with w = R - v) share the
    factorial (4s+3t+2u+R+v)! whose argument grows by one per step, so
    each term follows from the previous by one big-int multiply and two
    checked small divisions.  This cuts the dominant cost from ~n^4/6
    factorial evaluations to ~n^3/2 without changing any term value.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    total = 0
    for s in range(n + 1):
        pow24s = 24**s
        for t in range(n - s + 1):
            for u in range(n - s - t + 1):
                R = n - s - t - u
                base = 4 * s + 3 * t + 2 * u + R
                # v = 0 term: w = R, factorial argument = base.
                q = exact_div(factorial(base), pow24s * 2**t)
                mult = multinomial(n, (s, t, u, 0, R))
                sign = -1 if (t + R) & 1 else 1
                total += sign * mult * q
                for v in range(R):
                    q = exact_div(q * (base + v + 1), 2)
                    mult = exact_div(mult * (R - v), v + 1)
                    sign = -sign
                    total += sign * mult * q
    return total


def inclusion_exclusion(k: int, n: int) -> int:
    """a_k(n) by the inclusion-exclusion sum of that k, for k = 1..4."""
    if not 1 <= k <= 4:
        raise ValueError(f"incl-excl supports k=1..4 only, not k={k}")
    sums = (a1, a2_inclusion_exclusion, a3_inclusion_exclusion, a4_inclusion_exclusion)
    return sums[k - 1](n)


def terms(k: int, n: int) -> Iterator[Term]:
    """The signed terms of the k = 2, 3, 4 sum; other k raise ValueError at once."""
    if not 2 <= k <= 4:
        raise ValueError(f"term streams exist for k=2,3,4 only, not k={k}")
    return (a2_terms, a3_terms, a4_terms)[k - 2](n)


def phi_base(k: int) -> list[int]:
    """Coefficients of k! * L_k(t), all integers.

    L_k(t) = sum over j = 1..k of (-1)^(k-j) * C(k-1, j-1) * t^j / j! is
    the factor one symbol with k copies contributes.  The scaled base is
    [0, 1] for k = 1, [0, 6, -6, 1] for k = 3, [0, -24, 36, -12, 1] for
    k = 4.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    coeffs = [0] * (k + 1)
    for j in range(1, k + 1):
        c = multinomial(k - 1, (j - 1, k - j)) * exact_div(factorial(k), factorial(j))
        coeffs[j] = -c if (k - j) & 1 else c
    return coeffs


def phi_count(mults: Iterable[int]) -> int:
    """Carlitz words over the multiset with these multiplicities.

    phi(prod of phi_base(m)) / prod of m!, with one checked division: a
    remainder means a base coefficient is wrong.
    """
    poly, scale = [1], 1
    for m in mults:
        poly = poly_mul(phi_base(m), poly)
        scale *= factorial(m)
    return exact_div(phi(poly), scale)


def phi_count_range(k: int, n_max: int) -> list[int]:
    """[a_k(0), ..., a_k(n_max)] by the phi route.

    One polynomial multiply per step instead of an independent product,
    so a whole table costs barely more than its last entry.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    base = phi_base(k)
    poly, scale = [1], 1
    out = [1]
    for _ in range(n_max):
        poly = poly_mul(base, poly)
        scale *= factorial(k)
        out.append(exact_div(phi(poly), scale))
    return out


def upper_bound(k: int, n: int) -> int:
    """Total multiset permutations of k copies each of n symbols: (kn)!/(k!)^n.

    Every Carlitz count a_k(n) lies between 0 and this.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return exact_div(factorial(k * n), factorial(k) ** n)
