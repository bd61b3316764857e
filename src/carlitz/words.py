"""Ground-truth word oracle: predicates, exhaustive generation and
counting of Carlitz words over an arbitrary multiset of symbols.

A word is Carlitz (also called Smirnov) when no two adjacent letters are
equal.  A word is *ordered* when the first occurrences of the symbols
appear in increasing symbol order, so each equivalence class of words
under symbol relabeling has exactly one ordered representative.  Symbols
are the consecutive integers 0, 1, 2, ... and a word is a tuple of them.

Three independent counting engines live here, besides the literal
backtracking generator enumerate_ordered_carlitz:

* count_ordered_carlitz -- forward DP by letters placed, whose state is
  the count vector of used non-last symbols by copies left, the last
  symbol's copies left and the index of the next unused symbol;
* count_carlitz_total   -- memoized DP over the same state less the
  next unused symbol, since every symbol is in its class from the start;
* count_carlitz_by_filter -- generate *all* multiset permutations and
  filter with the predicate; deliberately unclever, used as the second
  oracle in tests.

Only the enumeration and the filter, which are exponential, refuse inputs
above a size limit.  The two DPs have none, but count_carlitz_total
recurses once per letter and raises RecursionError past ~990 letters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

Word = tuple[int, ...]

#: Largest total word length the enumeration accepts by default, and the
#: command line's default --limit.  Big enough for every uniform multiset
#: whose ordered words can realistically be enumerated; override per call
#: where needed.
DEFAULT_SYMBOL_LIMIT = 24

#: Default ceiling for the naive filter oracle, which touches every
#: multiset permutation and is meant for small cross-checks only.
DEFAULT_FILTER_LIMIT = 14


class SizeLimitError(RuntimeError):
    """A word oracle refused an input above its size bound."""


@dataclass(frozen=True)
class MultiplicityVector:
    """Per-symbol copy counts: mults[i] is the multiplicity of symbol i.

    All multiplicities are integers >= 1.  The empty vector describes the
    empty word (count 1).
    """

    mults: tuple[int, ...]

    def __init__(self, mults: Sequence[int] = ()):
        try:
            values = tuple(map(operator.index, mults))
        except TypeError:
            raise ValueError(f"multiplicities must be integers, got {mults}") from None
        object.__setattr__(self, "mults", values)
        if any(m < 1 for m in self.mults):
            raise ValueError(f"multiplicities must be >= 1, got {self.mults}")

    @classmethod
    def uniform(cls, k: int, n: int) -> "MultiplicityVector":
        """k copies each of n symbols: the multiset 0^k, 1^k, ..., (n-1)^k."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return cls((k,) * n)

    @classmethod
    def prefixed(cls, c: int, k: int, n: int) -> "MultiplicityVector":
        """Symbol 0 with multiplicity c, then k copies each of n more symbols."""
        if c < 1 or k < 1:
            raise ValueError(f"multiplicities must be >= 1, got c={c}, k={k}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return cls((c,) + (k,) * n)

    @property
    def total(self) -> int:
        """Total word length."""
        return sum(self.mults)

    @property
    def symbols(self) -> int:
        """Number of distinct symbols."""
        return len(self.mults)

    def __iter__(self):
        return iter(self.mults)

    def __len__(self) -> int:
        return len(self.mults)


def is_carlitz(word: Sequence[int]) -> bool:
    """True iff no two adjacent letters are equal (vacuously for len <= 1)."""
    return all(word[i] != word[i + 1] for i in range(len(word) - 1))


def is_ordered(word: Sequence[int], mv: MultiplicityVector) -> bool:
    """True iff first occurrences appear in increasing symbol order.

    The word must use exactly the multiset described by mv; anything
    else raises ValueError.
    """
    counts = [0] * mv.symbols
    for s in word:
        if not 0 <= s < mv.symbols:
            raise ValueError(f"symbol {s} out of range for {mv.mults}")
        counts[s] += 1
    if tuple(counts) != mv.mults:
        raise ValueError(f"word uses counts {tuple(counts)}, expected {mv.mults}")
    next_new = 0
    for s in word:
        if s > next_new:
            return False
        if s == next_new:
            next_new += 1
    return True


def _check_limit(mv: MultiplicityVector, limit: int | None, what: str) -> None:
    if limit is not None and mv.total > limit:
        raise SizeLimitError(
            f"{what} refused: total length {mv.total} exceeds limit {limit}"
        )


def enumerate_ordered_carlitz(
    mv: MultiplicityVector, limit: int | None = DEFAULT_SYMBOL_LIMIT
) -> Iterator[Word]:
    """Yield every ordered Carlitz word over mv, in lexicographic order.

    Backtracking with two prunes: a letter equal to its predecessor is
    never placed, and a not-yet-used symbol may be placed only if it is
    the smallest unused one.  Trying symbols in increasing order at each
    position makes the emission order lexicographic.
    """
    _check_limit(mv, limit, "enumeration")
    rem = list(mv.mults)
    nsym = len(rem)
    word: list[int] = []

    def rec(last: int, next_new: int, left: int) -> Iterator[Word]:
        if left == 0:
            yield tuple(word)
            return
        top = min(next_new, nsym - 1)
        for sym in range(top + 1):
            if sym == last or rem[sym] == 0:
                continue
            rem[sym] -= 1
            word.append(sym)
            yield from rec(sym, next_new + (sym == next_new), left - 1)
            word.pop()
            rem[sym] += 1

    if mv.total == 0:
        yield ()
    else:
        yield from rec(-1, 0, mv.total)


def count_ordered_carlitz(mv: MultiplicityVector) -> int:
    """Number of ordered Carlitz words over mv.

    Forward DP by letters placed, with no recursion and no enumeration.
    A prefix's state is (c, last, next_new): c[r-1] counts the used
    symbols other than the last one placed that have r copies left,
    `last` is that last symbol's copies left, and next_new is the index
    of the smallest unused symbol.  Prefixes with equal states have equal
    completion counts, because any two used symbols with the same copies
    left can be swapped.  The next letter is one of the c[r-1] used
    symbols of class r (weight c[r-1]) or symbol next_new (weight 1);
    either way the previous last symbol rejoins its class.  Unused
    symbols enter in index order, so heterogeneous vectors count
    correctly.  The steps are polynomial in the word length.
    """
    mults = mv.mults
    layer = {((0,) * max(mults, default=0), 0, 0): 1}
    for _ in range(mv.total):
        grown: dict[tuple[tuple[int, ...], int, int], int] = {}
        for (c, last, next_new), ways in layer.items():
            rejoined = list(c)
            if last:
                rejoined[last - 1] += 1
            for r, n_r in enumerate(c, 1):
                if n_r:
                    after = rejoined.copy()
                    after[r - 1] -= 1
                    key = (tuple(after), r - 1, next_new)
                    grown[key] = grown.get(key, 0) + ways * n_r
            if next_new < len(mults):
                key = (tuple(rejoined), mults[next_new] - 1, next_new + 1)
                grown[key] = grown.get(key, 0) + ways
        layer = grown
    return sum(layer.values())


def count_carlitz_total(mv: MultiplicityVector) -> int:
    """Total number of Carlitz words over mv (no ordering constraint).

    Memoized DP over count_ordered_carlitz's (c, last) state, starting
    from mv's histogram with last = 0: every symbol is in its class from
    the start, so there is no next unused symbol.  Each step makes the
    used-symbol move of the ordered DP; no copies left counts 1.  The
    memo is a plain dict with one recursive call per letter, because
    functools.cache's C wrapper halves the recursion headroom.
    """
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def f(c: tuple[int, ...], last: int) -> int:
        if not any(c):
            return 0 if last else 1
        key = (c, last)
        cached = memo.get(key)
        if cached is not None:
            return cached
        rejoined = list(c)
        if last:
            rejoined[last - 1] += 1
        total = 0
        for r, n_r in enumerate(c, 1):
            if n_r:
                after = rejoined.copy()
                after[r - 1] -= 1
                total += n_r * f(tuple(after), r - 1)
        memo[key] = total
        return total

    histogram = [mv.mults.count(r) for r in range(1, max(mv, default=0) + 1)]
    return f(tuple(histogram), 0)


def count_carlitz_by_filter(
    mv: MultiplicityVector, limit: int | None = DEFAULT_FILTER_LIMIT
) -> int:
    """Count Carlitz words by filtering all multiset permutations.

    Generates every distinct permutation of the multiset (no pruning of
    any kind) and applies is_carlitz to each complete word.  Slow on
    purpose: its only job is to be an independent oracle.
    """
    _check_limit(mv, limit, "naive filtering")
    rem = list(mv.mults)
    nsym = len(rem)
    word: list[int] = []
    count = 0

    def rec(left: int) -> None:
        nonlocal count
        if left == 0:
            if is_carlitz(word):
                count += 1
            return
        for sym in range(nsym):
            if rem[sym] == 0:
                continue
            rem[sym] -= 1
            word.append(sym)
            rec(left - 1)
            word.pop()
            rem[sym] += 1

    rec(mv.total)
    return count
