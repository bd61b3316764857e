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
a recurrence coefficient is wrong.  The first time an engine runs in a
process, every count in its states 0..3 is compared with the word oracle,
which catches a wrong step that still divides exactly.  Every engine also
asserts that the counts it emits are nonnegative (intermediate
combinations may dip below zero, emitted counts never legally can).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Iterator, TypeVar

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


S = TypeVar("S")
Counts = Callable[[S], tuple[int, ...]]
_oracle_checked: set[str] = set()  # engines that matched the oracle so far


def _checked(name: str, k: int, states: Iterator[S], counts: Counts) -> Iterator[S]:
    """states, its first four compared with the word oracle once per process.

    counts(state) is (p,), (p, q) or (p, q, r): the ordered Carlitz counts of
    1^k..n^k, 0^(k-1),1^k..n^k and 0^(k-2),1^k..n^k (at most 15 letters).
    The engine's own steps run first, so an inexact one raises before this.
    """
    if name in _oracle_checked:
        return states
    head = list(islice(states, 4))
    got = [counts(s) for s in head]
    zeros = ([], [k - 1], [k - 2])[: len(got[0])]  # copies of 0 for p, q, r
    expected = [
        tuple(count_ordered_carlitz(MultiplicityVector(z + [k] * n)) for z in zeros)
        for n in range(len(got))
    ]
    if got != expected:
        raise SelfCheckError(
            f"{name} disagrees with the word oracle on states 0..3: "
            f"recurrence {got}, oracle {expected}"
        )
    _oracle_checked.add(name)
    return chain(head, states)


def _nth(states: Iterator[S], n: int) -> S:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(states, n, None))


def _upto(states: Iterator[S], n_max: int) -> list[S]:
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return list(islice(states, n_max + 1))


def _p(value: int) -> tuple[int]:
    return (value,)


_pq = attrgetter("p", "q")
_pqr = attrgetter("p", "q", "r")


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
    return _nth(_checked("a'_2", 2, _iter_a2_prime(), _p), n)


def a2_prime_range(n_max: int) -> list[int]:
    """[a'_2(0), ..., a'_2(n_max)] by p_{n+1} = (2n+1) p_n + p_{n-1}."""
    return _upto(_checked("a'_2", 2, _iter_a2_prime(), _p), n_max)


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
    return _nth(_checked("k=3 coupled", 3, _iter_coupled3(), _pq), n)


def a3_prime_coupled_range(n_max: int) -> list[CoupledState3]:
    """States 0..n_max of the k=3 coupled system."""
    return _upto(_checked("k=3 coupled", 3, _iter_coupled3(), _pq), n_max)


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
    return _nth(_checked(f"four-term {rational=}", 3, _iter_fourterm(rational), _p), n)


def a3_prime_fourterm_range(n_max: int, rational: bool = False) -> list[int]:
    """[a'_3(0), ..., a'_3(n_max)] by the four-term recurrence."""
    states = _checked(f"four-term {rational=}", 3, _iter_fourterm(rational), _p)
    return _upto(states, n_max)


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


def _iter_coupled4() -> Iterator[CoupledState4]:
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
    by 3).  Like every engine, it checks states 0..3 with the word oracle once.
    """
    return _nth(_checked("k=4 coupled", 4, _iter_coupled4(), _pqr), n)


def a4_prime_coupled_range(n_max: int) -> list[CoupledState4]:
    """States 0..n_max of the k=4 coupled system."""
    return _upto(_checked("k=4 coupled", 4, _iter_coupled4(), _pqr), n_max)


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
