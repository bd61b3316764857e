"""P-recursive evaluation of ordered Carlitz counts a'_k(n) for k = 2, 3, 4.

Four engines, each one step function in the table _ENGINES, all run by
one iterative stepping loop over a sliding window of recent states, so n
in the tens of thousands runs without touching any recursion limit and,
for single values and streamed ranges, in window-bounded memory:

* k = 2: three-term recurrence p_{n+1} = (2n+1) p_n + p_{n-1};
* k = 3: coupled system over p_n (ordered words on 1^3..n^3) and q_n
  (ordered words on 0^2,1^3..n^3);
* k = 3: the standalone four-term recurrence, a differential check, in
  integer form only (the paper's 1/n coefficients cleared by 2n);
* k = 4: coupled system over p_n (1^4..n^4), q_n (0^3,1^4..n^4) and
  r_n (0^2,1^4..n^4), advanced in the order r, q, p dictated by the
  index dependencies.

The k = 2, 3, 4 engines are read through state(k, n) and states(k, n_max)
(every count of a state) and prime(k, n) and prime_stream(k, n_max) (p
alone); the four-term engine through a3_prime_fourterm(n) and
a3_prime_fourterm_range(n_max).

The steps are generic in the number type: prime_stream(k, n_max, unit)
seeds an engine's first counts and window with unit, so Decimal(1) makes
the same steps emit exact decimal.Decimal counts.  The CLI's `table` and
`oeis-check` do that under exact.EXACT, which traps every rounding, so
the values stay exact and print and parse in linear time; everything
else runs on int.

Every division the recurrences promise to be exact (by 2, 3 and 2n) is
checked; a remainder raises InexactDivisionError, because it would mean
a recurrence coefficient is wrong.  The first time an engine runs in a
process, every count in its states 0..3 is compared with the word oracle,
which catches a wrong step that still divides exactly.  The stepping
loop also asserts that every count it emits is nonnegative (intermediate
combinations may dip below zero, emitted counts never legally can).
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import Iterator, NamedTuple

from .exact import exact_div
from .words import MultiplicityVector, count_ordered_carlitz


class SelfCheckError(RuntimeError):
    """A recurrence output failed an always-on consistency check."""


class State(NamedTuple):
    """Counts of the k-engine at index n; q for k = 3, 4 and r for k = 4.

    p: ordered Carlitz count of 1^k, ..., n^k (that is, a'_k(n)).
    q: ordered Carlitz count of 0^(k-1), 1^k, ..., n^k.
    r: ordered Carlitz count of 0^(k-2), 1^k, ..., n^k.
    """

    n: int
    p: int
    q: int | None = None
    r: int | None = None


_oracle_checked: set[str] = set()  # engines that matched the oracle so far


def _checked(name: str, k: int, counts: Iterator[tuple]) -> Iterator[tuple]:
    """counts, its first four compared with the word oracle once per process.

    Each item is (p,), (p, q) or (p, q, r): the ordered Carlitz counts of
    1^k..n^k, 0^(k-1),1^k..n^k and 0^(k-2),1^k..n^k (at most 15 letters).
    The engine's own steps run first, so an inexact one raises before this.
    """
    if name in _oracle_checked:
        return counts
    head = list(islice(counts, 4))
    zeros = ([], [k - 1], [k - 2])[: len(head[0])]  # copies of 0 for p, q, r
    expected = [
        tuple(count_ordered_carlitz(MultiplicityVector(z + [k] * n)) for z in zeros)
        for n in range(len(head))
    ]
    if head != expected:
        raise SelfCheckError(
            f"{name} disagrees with the word oracle on states 0..3: "
            f"recurrence {head}, oracle {expected}"
        )
    _oracle_checked.add(name)
    return chain(head, counts)


def _nth(counts: Iterator[tuple], n: int) -> tuple:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return next(islice(counts, n, None))


def _upto(counts: Iterator[tuple], n_max: int) -> Iterator[tuple]:
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return islice(counts, n_max + 1)


# The step functions are the seams for fault-injection tests.  Each takes
# (n, *window at n) and returns (the counts it emits, the window at n + 1):
# the scalar recurrences emit the p_{n+1} they compute, the coupled systems
# the counts at n, since q_n (and r_n) come out of step n.  Every division
# in a step is exact whenever the coefficients are the true ones.


def _a2_step(n: int, p_prev: int, p: int) -> tuple[tuple, tuple]:
    p_next = (2 * n + 1) * p + p_prev
    return (p_next,), (p, p_next)


# Advances q to index n and p to index n+1 from (p_{n-1}, p_n, q_{n-1}).
def _coupled3_step(n: int, p_prev: int, p: int, q_prev: int) -> tuple[tuple, tuple]:
    q = (3 * n + 2) * p + 2 * q_prev
    p_next = exact_div((3 * n + 3) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
    return (p, q), (p, p_next, q)


# Computes p_{n+1} from (p_{n-2}, p_{n-1}, p_n).  Valid for n >= 2; the
# cleared form divides by 2n.
def _fourterm_step(n: int, p_back2: int, p_back1: int, p: int) -> tuple[tuple, tuple]:
    num = (
        (9 * n**3 + 9 * n**2 + 8 * n + 4) * p
        + (12 * n**2 + 6 * n - 8) * p_back1
        - (4 * n + 4) * p_back2
    )
    p_next = exact_div(num, 2 * n)
    return (p_next,), (p_back1, p, p_next)


# Advances r and q to index n and p to index n+1.  Update order r -> q -> p
# is forced by the dependencies: r_n needs q_{n-1}, q_n needs r_n, p_{n+1}
# needs q_n.
def _coupled4_step(
    n: int, p_prev: int, p: int, q_prev: int, r_prev: int
) -> tuple[tuple, tuple]:
    r = (4 * n + 3) * p + 3 * q_prev
    q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 6) * p, 2)
    p_next = exact_div(
        (4 * n + 1) * q
        + 3 * (10 * q_prev - r + 4 * r_prev + (6 * n + 7) * p + p_prev),
        3,
    )
    return (p, q, r), (p, p_next, q, r)


#: One row per engine: oracle-check name, k, the counts emitted before the
#: first step, the first n stepped, the window at that n, and the step's name.
#: The four-term step has 1/n poles, so it starts at n = 2 from p_0 = 1,
#: p_1 = 0, p_2 = 1 (its applicability at n = 1 is untested and not relied on).
_ENGINES = {
    2: ("a'_2", 2, [(1,), (0,)], 1, (1, 0), "_a2_step"),
    3: ("k=3 coupled", 3, [(1, 0)], 1, (1, 0, 0), "_coupled3_step"),
    4: ("k=4 coupled", 4, [(1, 0, 0)], 1, (1, 0, 0, 0), "_coupled4_step"),
    "four-term": ("four-term", 3, [(1,), (0,), (1,)], 2, (1, 0, 1), "_fourterm_step"),
}


def _engine(key: int | str, unit=1) -> Iterator[tuple]:
    """The oracle-checked counts of the _ENGINES row under key, stepped as
    they are taken, in the number type of unit (the head and the initial
    window are multiplied by it).  The step is looked up on this module
    here, so replacing one changes what runs."""
    if key not in _ENGINES:
        raise ValueError(f"recurrence supports k=2,3,4 only, not k={key}")
    name, k, head, first, window, step_name = _ENGINES[key]
    head = [tuple(unit * c for c in counts) for counts in head]
    window = tuple(unit * c for c in window)
    step = globals()[step_name]

    def stepped(window: tuple) -> Iterator[tuple]:
        for n in count(first):
            counts, window = step(n, *window)
            for c in counts:
                if c < 0:
                    raise SelfCheckError(f"{name} step at n={n} emitted a negative count: {counts}")
            yield counts

    return _checked(name, k, chain(head, stepped(window)))


def a3_prime_fourterm(n: int) -> int:
    """a'_3(n) by the standalone four-term recurrence, in the integer form
    cleared of denominators (multiplied through by 2n)."""
    return _nth(_engine("four-term"), n)[0]


def a3_prime_fourterm_range(n_max: int) -> list[int]:
    """[a'_3(0), ..., a'_3(n_max)] by the four-term recurrence."""
    return [c[0] for c in _upto(_engine("four-term"), n_max)]


def state(k: int, n: int) -> State:
    """State n of the k-engine (k = 2, 3, 4), from p_0 = 1, p_1 = 0, q_0 = r_0 = 0."""
    return State(n, *_nth(_engine(k), n))


def states(k: int, n_max: int) -> list[State]:
    """States 0..n_max of the k-engine (k = 2, 3, 4), in one pass."""
    return [State(n, *c) for n, c in enumerate(_upto(_engine(k), n_max))]


def prime(k: int, n: int) -> int:
    """a'_k(n) for k = 2, 3, 4: the three-term recurrence or a coupled system."""
    return _nth(_engine(k), n)[0]


def prime_stream(k: int, n_max: int, unit=1) -> Iterator[int]:
    """a'_k(0), ..., a'_k(n_max) for k = 2, 3, 4, stepped as they are taken,
    so only the engine's window of recent states is held.  A bad k or
    n_max raises here, before the first value.  With unit Decimal(1) the
    values are Decimals; draw them under decimal.localcontext(exact.EXACT)."""
    return (c[0] for c in _upto(_engine(k, unit), n_max))
