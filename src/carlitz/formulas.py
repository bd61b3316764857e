"""Closed-form counts of Carlitz words over k copies each of n symbols.

Inclusion-exclusion sums for k = 2, 3, 4: a composition of the n symbols
over the blocking patterns in PATTERNS (how many blocks each symbol's
copies are glued into) gives one signed term.  The rows of equal block
count fuse into one step polynomial of at most k terms.  Three entry
points serve the sums: terms(k, n), for k = 2, 3, 4, computes each term
on its own; inclusion_exclusion_range(k, n_max), for k = 1..4, serves
every n up to n_max from one tabulation of the step; and
inclusion_exclusion(k, n), for k = 1..4, gives one a_k(n) (a_1(n) = n!)
from exact.phi_power of the step's n-th power, in O(k^2 n) small steps.

Independently, the factorial substitution phi (t^j -> j!) counts the
Carlitz words over any multiset (m_1, ..., m_r) as phi(prod L_{m_i}(t)),
each factor scaled by m_i! to integer coefficients and divided out once,
checked, at the end.  phi_count takes phi of the product by the same
phi_power, phi_count_stream by one integer polynomial product per n.

Every division the identities promise to be exact is checked by
exact_div, which raises InexactDivisionError on a remainder: a wrong
formula coefficient must never be rounded away.
"""

from __future__ import annotations

from collections import Counter
from math import lcm, prod
from typing import Iterable, Iterator, NamedTuple

from .exact import compositions, exact_div, factorial, factorials, multinomial, phi, phi_power, poly_mul


class Term(NamedTuple):
    """One signed summand of an inclusion-exclusion sum: composition holds
    one count per PATTERNS row, (s, t, u, v, w) for k=4."""

    composition: tuple[int, ...]
    value: int


#: Blocking patterns, one row per composition part: (blocks, divisor,
#: sign).  A symbol in the part has its k copies glued into `blocks`
#: blocks; `divisor` is the shape's symmetry factor.  As weights
#: sign * t^blocks / divisor the rows sum to the Laguerre factor L_k(t).
#: The last row is always the 1-block shape.
PATTERNS = {
    2: ((2, 2, 1), (1, 1, -1)),
    3: ((3, 6, 1), (2, 1, -1), (1, 1, 1)),
    4: ((4, 24, 1), (3, 2, -1), (2, 1, 1), (2, 2, 1), (1, 1, -1)),
}


def terms(k: int, n: int) -> Iterator[Term]:
    """The signed terms of the k = 2, 3, 4 sum, each computed on its own, in
    compositions() order: sign * multinomial(n; c) * (sum of blocks*c)! / prod
    of divisor^c.  A bad k or n raises ValueError here, before the first term.
    """
    if k not in PATTERNS:
        raise ValueError(f"term streams exist for k=2,3,4 only, not k={k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rows = PATTERNS[k]

    def stream() -> Iterator[Term]:
        # 0!..(kn)! by one running product as the first term is taken, so
        # every lookup is O(1) at any n and nothing stays cached; for a
        # huge n this table runs out of memory before any divisor d**n.
        fact = factorials(k * n)
        for comp in compositions(n, len(rows)):
            mult = exact_div(fact[n], prod(fact[c] for c in comp))
            length, div, negative = 0, 1, 0
            for (blocks, d, sign), c in zip(rows, comp):
                length += blocks * c
                div *= d**c
                negative ^= c & 1 if sign < 0 else 0
            mag = mult * exact_div(fact[length], div)
            yield Term(comp, -mag if negative else mag)

    return stream()


def _fused_step(k: int) -> tuple[list[int], int]:
    """(c, D) for the rows of PATTERNS[k]: D is the lcm of their divisors
    and c[b] the sum of sign * D / divisor over the rows with b blocks, so
    the step polynomial sum of c_b t^b has at most k terms for any k."""
    rows = PATTERNS[k]
    scale = lcm(*(div for _, div, _ in rows))
    c = [0] * (k + 1)
    for blocks, div, sign in rows:
        c[blocks] += sign * exact_div(scale, div)
    return c, scale


def _pattern_point(k: int, n: int) -> int:
    """One a_k(n) from the fused step (c, D) alone: scaled by D^n and grouped
    by length, the terms sum to phi(c^n), whose lowest term is at t^n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    c, scale = _fused_step(k)
    return exact_div(phi_power([(c, n)]), scale**n) * factorial(n)


def a2_inclusion_exclusion(n: int) -> int:
    """Number of Carlitz words over 2 copies each of n symbols.  Term at
    (s, t), s + t = n:  (-1)^t * C(n, s) * (2s+t)! / 2^s."""
    return _pattern_point(2, n)


def a3_inclusion_exclusion(n: int) -> int:
    """Number of Carlitz words over 3 copies each of n symbols.  Term at
    (s, t, u), s + t + u = n:  (-1)^t * multinomial(n; s,t,u) * (3s+2t+u)! / 6^s."""
    return _pattern_point(3, n)


def a4_inclusion_exclusion(n: int) -> int:
    """Number of Carlitz words over 4 copies each of n symbols.  Term at
    (s, t, u, v, w), s + t + u + v + w = n:  (-1)^(t+w) * multinomial(n; s,t,u,v,w)
    * (4s+3t+2u+2v+w)! / (24^s * 2^(v+t))."""
    return _pattern_point(4, n)


def inclusion_exclusion(k: int, n: int) -> int:
    """a_k(n) by the inclusion-exclusion sum of that k, for k = 1..4; a_1(n) = n!.

    The k = 2, 3, 4 sums are looked up on this module at every call, so
    replacing one of them changes what this returns.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"incl-excl supports k=1..4 only, not k={k}")
    if k == 1:
        return factorial(n)
    return (a2_inclusion_exclusion, a3_inclusion_exclusion, a4_inclusion_exclusion)[k - 2](n)


def inclusion_exclusion_range(k: int, n_max: int) -> list[int]:
    """[a_k(0), ..., a_k(n_max)] by the k sum, for k = 1..4, all n at once.

    With (c, D) the fused step, the terms over every split of T symbols,
    scaled by D^T, sum to H(T, 0), where the row of the first symbol gives
        H(0, L) = L!,  H(T, L) = sum over b of c_b * H(T-1, L + b).
    The table is built one T at a time, each level only as wide as the
    later levels need, and a_k(T) is H(T, 0) / D^T with one checked
    division.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if not 1 <= k <= 4:
        raise ValueError(f"incl-excl supports k=1..4 only, not k={k}")
    if k == 1:
        return factorials(n_max)
    c, scale = _fused_step(k)
    out = [1] * (n_max + 1)  # first, so a huge n_max fails before h fills memory
    h = factorials(k * n_max)
    for T in range(1, n_max + 1):
        # h[L] becomes H(T, L), one list pass per block count (none for a leading 1)
        g = h[k : k + k * (n_max - T) + 1]
        if c[k] != 1:
            g = [c[k] * x for x in g]
        for b in range(k - 1, 0, -1):
            g = [y + c[b] * x for y, x in zip(g, h[b:])]
        h = g
        out[T] = exact_div(h[0], scale**T)
    return out


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
    """Carlitz words over the multiset with these multiplicities: phi(prod
    of phi_base(m)) / prod of m!, by one phi_power over the distinct m (each
    base's lowest term is t^1, so V is the symbol count) and one checked
    division: a remainder means a base coefficient is wrong."""
    groups = Counter(mults)
    power = phi_power([(phi_base(m), e) for m, e in groups.items()])
    scale = prod(factorial(m) ** e for m, e in groups.items())
    return exact_div(power * factorial(groups.total()), scale)


def phi_count_stream(k: int, n_max: int) -> Iterator[int]:
    """a_k(0), ..., a_k(n_max) by the phi route, computed as they are taken.

    One polynomial multiply per step instead of an independent product,
    so a whole table costs barely more than its last entry, and only the
    current product is held.  A bad k or n_max raises here, before the
    first value.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    base, step = phi_base(k), factorial(k)

    def counts() -> Iterator[int]:
        poly, scale = [1], 1
        yield 1
        for _ in range(n_max):
            poly = poly_mul(base, poly)
            scale *= step
            yield exact_div(phi(poly), scale)

    return counts()


def upper_bound(k: int, n: int) -> int:
    """Total multiset permutations of k copies each of n symbols: (kn)!/(k!)^n.

    Every Carlitz count a_k(n) lies between 0 and this.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return exact_div(factorial(k * n), factorial(k) ** n)
