"""Reference values for the benchmark, computed without the program.

Every value the benchmark checks comes from here, in the benchmark's own
process, never from the program's call paths.  Totals use the integer
form of the factorial-substitution identity: with

    Q_k(t) = sum_{j=1..k} (-1)^(k-j) * C(k-1, j-1) * (k!/j!) * t^j,

a_k(n) = phi(Q_k(t)^n) / (k!)^n, where phi maps t^j to j!.  phi is
evaluated by Horner's rule over the factorials, so a whole range costs
O(k * n_max^2) small multiplications.  Ordered counts are a_k(n) / n!.
Both divisions are checked.  The inclusion-exclusion terms behind
`count --trace` are rebuilt from their defining formulas.

Values longer than Python's default int/str digit limit are part of the
workloads, so the process that builds the reference lifts that limit.
The program always runs in another process, where the limit stays.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from math import comb, factorial
from pathlib import Path

#: Python's default int<->str digit limit; values longer than this make
#: the program raise ValueError at this commit.
DIGIT_LIMIT = 4300

#: Largest n tabulated per k.  Covers every op the workloads generate.
EXTENT = {1: 400, 2: 1000, 3: 750, 4: 550, 5: 12, 6: 12}


class Reference:
    """Decimal strings of a_k(n) and a'_k(n) for n = 0..EXTENT[k]."""

    def __init__(self, totals: dict[int, list[str]], ordered: dict[int, list[str]]):
        self.totals = totals
        self.ordered_values = ordered

    def value(self, k: int, n: int, ordered: bool = False) -> str:
        return (self.ordered_values if ordered else self.totals)[k][n]

    def first_over_limit(self, k: int, ordered: bool = False) -> int:
        """Smallest n whose value has more than DIGIT_LIMIT digits."""
        values = self.ordered_values[k] if ordered else self.totals[k]
        for n, v in enumerate(values):
            if len(v) > DIGIT_LIMIT:
                return n
        return len(values)


def _base(k: int) -> list[int]:
    return [0] + [
        (-1) ** (k - j) * comb(k - 1, j - 1) * (factorial(k) // factorial(j))
        for j in range(1, k + 1)
    ]


def totals(k: int, n_max: int) -> list[int]:
    """[a_k(0), ..., a_k(n_max)] by the integer factorial substitution."""
    base = [(j, c) for j, c in enumerate(_base(k)) if c]
    scale_step = factorial(k)
    poly, scale, out = [1], 1, [1]
    for _ in range(n_max):
        nxt = [0] * (len(poly) + k)
        for i, c in enumerate(poly):
            if c:
                for j, d in base:
                    nxt[i + j] += c * d
        poly = nxt
        acc = 0
        for j in range(len(poly) - 1, -1, -1):
            acc = acc * (j + 1) + poly[j]
        scale *= scale_step
        value, rem = divmod(acc, scale)
        if rem or value < 0:
            raise ArithmeticError(f"phi(Q_{k}^n) / {k}!^n is not a count")
        out.append(value)
    return out


def _brute_total(mults: tuple[int, ...]) -> int:
    """Carlitz words over a small multiset, by memoized search."""
    memo: dict[tuple[tuple[int, ...], int], int] = {}

    def count(rem: tuple[int, ...], last: int) -> int:
        if not any(rem):
            return 1
        key = (rem, last)
        if key not in memo:
            memo[key] = sum(
                count(rem[:s] + (rem[s] - 1,) + rem[s + 1 :], s)
                for s in range(len(rem))
                if rem[s] and s != last
            )
        return memo[key]

    return count(mults, -1)


def _self_check(values: dict[int, list[int]]) -> None:
    for k, vs in values.items():
        for n in range(min(len(vs), 16 // k + 1)):
            if vs[n] != _brute_total((k,) * n):
                raise ArithmeticError(f"reference a_{k}({n}) disagrees with search")


def build() -> Reference:
    ints = {k: totals(k, n_max) for k, n_max in EXTENT.items()}
    _self_check(ints)
    ordered = {}
    for k, vs in ints.items():
        ordered[k] = []
        for n, v in enumerate(vs):
            q, r = divmod(v, factorial(n))
            if r:
                raise ArithmeticError(f"a_{k}({n}) is not divisible by {n}!")
            ordered[k].append(str(q))
    return Reference({k: [str(v) for v in vs] for k, vs in ints.items()}, ordered)


def load(cache_dir: Path) -> Reference:
    """The reference, built once per checkout and cached as JSON."""
    sys.set_int_max_str_digits(0)
    key = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]
    path = cache_dir / f"reference-{key}.json"
    if path.exists():
        data = json.loads(path.read_text())
        return Reference(
            {int(k): v for k, v in data["totals"].items()},
            {int(k): v for k, v in data["ordered"].items()},
        )
    ref = build()
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"totals": ref.totals, "ordered": ref.ordered_values}))
    os.replace(tmp, path)
    return ref


_TERM_SHAPES = {
    # k: (word length per part, symmetry divisor per part, sign parity per part)
    2: ((2, 1), (2, 1), (0, 1)),
    3: ((3, 2, 1), (6, 1, 1), (0, 1, 0)),
    4: ((4, 3, 2, 2, 1), (24, 2, 1, 2, 1), (0, 1, 0, 0, 1)),
}


def _compositions(n: int, m: int):
    # Weak compositions of n into m parts, last part slowest.
    if m == 1:
        yield (n,)
        return
    for last in range(n + 1):
        for rest in _compositions(n - last, m - 1):
            yield rest + (last,)


def trace_lines(k: int, n: int) -> list[str]:
    """The lines `count --k K --n N --trace` prints, total line included.

    Term at composition c: (-1)^(parity . c) * multinomial(n; c) *
    (length . c)! / prod(divisor_i ^ c_i), as the program documents it.
    """
    lengths, divisors, parity = _TERM_SHAPES[k]
    letters = "stuvw"
    lines, total = [], 0
    for comp in _compositions(n, len(lengths)):
        mult = factorial(n)
        for c in comp:
            mult //= factorial(c)
        denom = 1
        for d, c in zip(divisors, comp):
            denom *= d**c
        mag, rem = divmod(factorial(sum(l * c for l, c in zip(lengths, comp))), denom)
        if rem:
            raise ArithmeticError(f"term {comp} of a_{k}({n}) is not an integer")
        value = -mult * mag if sum(p * c for p, c in zip(parity, comp)) & 1 else mult * mag
        total += value
        pattern = " ".join(f"{letters[i]}={c}" for i, c in enumerate(comp))
        lines.append(f"{pattern}  {value:+d}")
    lines.append(f"total {total}")
    return lines
