"""P-recursive evaluation of ordered Carlitz counts a'_k(n) for k = 2, 3, 4.

Three engines, all iterative with a sliding window of recent states so
n in the tens of thousands runs without touching any recursion limit
and, for single-value queries, in window-bounded memory:

* k = 2: three-term recurrence p_{n+1} = (2n+1) p_n + p_{n-1};
* k = 3: coupled system over p_n (ordered words on 1^3..n^3) and q_n
  (ordered words on 0^2,1^3..n^3), plus an equivalent standalone
  four-term recurrence kept as a differential check;
* k = 4: coupled system over p_n (1^4..n^4), q_n (0^3,1^4..n^4) and
  r_n (0^2,1^4..n^4), advanced in the order r, q, p dictated by the
  index dependencies.

Every division the recurrences promise to be exact (by 2, 3 and 2n) is
checked; a remainder raises InexactDivisionError, because it would mean
a recurrence coefficient is wrong.  The k = 4 system additionally
verifies its first three states against the brute-force word oracle the
first time it runs in a process, and every engine asserts that the
counts it emits are nonnegative (intermediate combinations may dip
below zero, emitted counts never legally can).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .exact import InexactDivisionError, exact_div
from .words import MultiplicityVector, count_ordered_carlitz


class SelfCheckError(RuntimeError):
    """A recurrence output failed an always-on consistency check."""


@dataclass(frozen=True)
class CoupledState3:
    """State of the k=3 coupled system at index n.

    p: ordered Carlitz count of 1^3, ..., n^3 (that is, a'_3(n)).
    q: ordered Carlitz count of 0^2, 1^3, ..., n^3.
    """

    n: int
    p: int
    q: int


@dataclass(frozen=True)
class CoupledState4:
    """State of the k=4 coupled system at index n.

    p: ordered Carlitz count of 1^4, ..., n^4 (that is, a'_4(n)).
    q: ordered Carlitz count of 0^3, 1^4, ..., n^4.
    r: ordered Carlitz count of 0^2, 1^4, ..., n^4.
    """

    n: int
    p: int
    q: int
    r: int


def _count(value: int, label: str, n: int) -> int:
    # Emitted counts must be nonnegative; a negative one means a
    # recurrence coefficient is wrong even though every division landed.
    if value < 0:
        raise SelfCheckError(f"{label} at n={n} is negative: {value}")
    return value


def _iter_a2_prime() -> Iterator[int]:
    p_prev, p = 1, 0
    yield _count(p_prev, "a'_2", 0)
    yield _count(p, "a'_2", 1)
    n = 1
    while True:
        p_prev, p = p, (2 * n + 1) * p + p_prev
        n += 1
        yield _count(p, "a'_2", n)


def a2_prime_rec(n: int) -> int:
    """a'_2(n) by the three-term recurrence."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(_iter_a2_prime(), n, None))


def a2_prime_range(n_max: int) -> list[int]:
    """[a'_2(0), ..., a'_2(n_max)] by p_{n+1} = (2n+1) p_n + p_{n-1}."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return list(islice(_iter_a2_prime(), n_max + 1))


# Seam for fault-injection tests: one k=3 step, advancing q to index n
# and p to index n+1 from (p_{n-1}, p_n, q_{n-1}).  The division by 2 is
# exact whenever the coefficients are the true ones.
def _coupled3_step(n: int, p_prev: int, p: int, q_prev: int) -> tuple[int, int]:
    q = (3 * n + 2) * p + 2 * q_prev
    p_next = exact_div((3 * n + 3) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
    return q, p_next


def _iter_coupled3() -> Iterator[CoupledState3]:
    yield CoupledState3(0, 1, 0)
    p_prev, p, q_prev = 1, 0, 0
    n = 1
    while True:
        q, p_next = _coupled3_step(n, p_prev, p, q_prev)
        yield CoupledState3(
            n, _count(p, "a'_3", n), _count(q, "q (0^2,1^3..n^3)", n)
        )
        p_prev, p, q_prev = p, p_next, q
        n += 1


def a3_prime_coupled(n: int) -> CoupledState3:
    """(p_n, q_n) of the k=3 coupled system; p_n = a'_3(n).

    Initial conditions p_0 = 1, p_1 = 0, q_0 = 0; each step computes
    q_n from p_n and q_{n-1}, then p_{n+1} with a checked halving.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(_iter_coupled3(), n, None))


def a3_prime_coupled_range(n_max: int) -> list[CoupledState3]:
    """States 0..n_max of the k=3 coupled system."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return list(islice(_iter_coupled3(), n_max + 1))


# Seam for fault-injection tests: one four-term step, returning p_{n+1}
# from (p_{n-2}, p_{n-1}, p_n).  Valid for n >= 2; the cleared form
# divides by 2n, exactly when the coefficients are the true ones.
def _fourterm_step(n: int, p_back2: int, p_back1: int, p: int) -> int:
    num = (
        (9 * n**3 + 9 * n**2 + 8 * n + 4) * p
        + (12 * n**2 + 6 * n - 8) * p_back1
        - (4 * n + 4) * p_back2
    )
    return exact_div(num, 2 * n)


def _fourterm_step_rational(n: int, p_back2: int, p_back1: int, p: int) -> int:
    lam = Fraction(9 * n**2 + 9 * n + 8, 2) + Fraction(2, n)
    mu = (6 * n + 3) - Fraction(4, n)
    nu = -2 - Fraction(2, n)
    value = lam * p + mu * p_back1 + nu * p_back2
    if value.denominator != 1:
        raise InexactDivisionError(
            f"four-term step at n={n} produced non-integer {value}"
        )
    return value.numerator


def _iter_fourterm(rational: bool) -> Iterator[int]:
    step = _fourterm_step_rational if rational else _fourterm_step
    window = [1, 0, 1]
    for n, v in enumerate(window):
        yield _count(v, "a'_3 (four-term)", n)
    n = 2
    while True:
        window.append(step(n, *window[-3:]))
        del window[0]
        n += 1
        yield _count(window[-1], "a'_3 (four-term)", n)


def a3_prime_fourterm(n: int, rational: bool = False) -> int:
    """a'_3(n) by the standalone four-term recurrence.

    The step coefficients have 1/n poles, so stepping starts at n = 2
    from the initial values p_0 = 1, p_1 = 0, p_2 = 1 (applicability of
    the step at n = 1 is untested and not relied on).  By default the
    integer form cleared of denominators (multiplied through by 2n) is
    used; rational=True evaluates the original fractional coefficients
    instead, as an independent second implementation.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(_iter_fourterm(rational), n, None))


def a3_prime_fourterm_range(n_max: int, rational: bool = False) -> list[int]:
    """[a'_3(0), ..., a'_3(n_max)] by the four-term recurrence."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return list(islice(_iter_fourterm(rational), n_max + 1))


# Seam for fault-injection tests: one k=4 step, advancing r and q to
# index n and p to index n+1.  Update order r -> q -> p is forced by the
# dependencies: r_n needs q_{n-1}, q_n needs r_n, p_{n+1} needs q_n.
def _coupled4_step(
    n: int, p_prev: int, p: int, q_prev: int, r_prev: int
) -> tuple[int, int, int]:
    r = (4 * n + 3) * p + 3 * q_prev
    q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 6) * p, 2)
    p_next = exact_div(
        (4 * n + 1) * q
        + 3 * (10 * q_prev - r + 4 * r_prev + (6 * n + 7) * p + p_prev),
        3,
    )
    return r, q, p_next


_k4_checked = False


def _self_check_k4() -> None:
    """Check the k=4 system's first states against the word oracle.

    Runs once per process before any k=4 recurrence result is returned.
    The oracle instances are tiny (at most 11 letters), so this costs
    milliseconds.  A mismatch means the recurrence or its evaluation
    order is wrong and raises SelfCheckError with the full state.
    """
    global _k4_checked
    if _k4_checked:
        return
    p_prev, p, q_prev, r_prev = 1, 0, 0, 0
    got = {0: (1, 0, 0)}
    for n in (1, 2):
        r, q, p_next = _coupled4_step(n, p_prev, p, q_prev, r_prev)
        got[n] = (p, q, r)
        p_prev, p, q_prev, r_prev = p, p_next, q, r
    for n in (0, 1, 2):
        expected = (
            count_ordered_carlitz(MultiplicityVector.uniform(4, n)),
            count_ordered_carlitz(MultiplicityVector.prefixed(3, 4, n)),
            count_ordered_carlitz(MultiplicityVector.prefixed(2, 4, n)),
        )
        if got[n] != expected:
            raise SelfCheckError(
                f"k=4 recurrence disagrees with word oracle at n={n}: "
                f"recurrence (p,q,r)={got[n]}, oracle (p,q,r)={expected}; "
                f"all recurrence states {got}"
            )
    _k4_checked = True


def _iter_coupled4() -> Iterator[CoupledState4]:
    _self_check_k4()
    yield CoupledState4(0, 1, 0, 0)
    p_prev, p, q_prev, r_prev = 1, 0, 0, 0
    n = 1
    while True:
        r, q, p_next = _coupled4_step(n, p_prev, p, q_prev, r_prev)
        yield CoupledState4(
            n,
            _count(p, "a'_4", n),
            _count(q, "q (0^3,1^4..n^4)", n),
            _count(r, "r (0^2,1^4..n^4)", n),
        )
        p_prev, p, q_prev, r_prev = p, p_next, q, r
        n += 1


def a4_prime_coupled(n: int) -> CoupledState4:
    """(p_n, q_n, r_n) of the k=4 coupled system; p_n = a'_4(n).

    Initial conditions p_0 = 1, p_1 = 0, q_0 = 0, r_0 = 0; per step the
    updates run r, then q (checked halving), then p (checked division
    by 3).  The first call in a process self-checks n <= 2 against the
    word oracle.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(_iter_coupled4(), n, None))


def a4_prime_coupled_range(n_max: int) -> list[CoupledState4]:
    """States 0..n_max of the k=4 coupled system."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return list(islice(_iter_coupled4(), n_max + 1))


def prime(k: int, n: int) -> int:
    """a'_k(n) for k = 2, 3, 4: the three-term recurrence or a coupled system."""
    if not 2 <= k <= 4:
        raise ValueError(f"recurrence supports k=2,3,4 only, not k={k}")
    if k == 2:
        return a2_prime_rec(n)
    return (a3_prime_coupled if k == 3 else a4_prime_coupled)(n).p


def prime_range(k: int, n_max: int) -> list[int]:
    """[a'_k(0), ..., a'_k(n_max)] for k = 2, 3, 4, in one pass of that engine."""
    if not 2 <= k <= 4:
        raise ValueError(f"recurrence supports k=2,3,4 only, not k={k}")
    if k == 2:
        return a2_prime_range(n_max)
    states = (a3_prime_coupled_range if k == 3 else a4_prime_coupled_range)(n_max)
    return [s.p for s in states]
