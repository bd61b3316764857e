"""Command-line surface for exact Carlitz-word counting.

Usage:
    carlitz count --k 3 --n 3                         # 174
    carlitz count --k 3 --n 3 --trace                 # per-term breakdown
    carlitz count --k 2 --n 6 --ordered               # 3655
    carlitz table --k 2 --n-max 6 --format csv
    carlitz verify --k 3 --n-max 50                   # cross-method check
    carlitz oeis-check b114938.txt --k 2              # diff against a b-file

All printed values are exact decimal integers, never rounded or
abbreviated.  Exit codes: 0 success, 1 verification or b-file mismatch,
2 usage or format error, 3 refusal of an oversized brute-force request.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, NamedTuple

import click

from . import formulas, recurrences, words
from .bfile import BFileFormatError, read_bfile
from .exact import exact_div, factorial
from .words import DEFAULT_SYMBOL_LIMIT, MultiplicityVector

METHODS = ("brute", "incl-excl", "phi", "recurrence")

#: Brute force joins `verify` only while the word multiset stays at most
#: this long; beyond that the word DPs' cost would dominate the whole run.
DEFAULT_VERIFY_BRUTE_LIMIT = 15

#: The largest n any command computes: n_max + 1 values must fit a Python index.
MAX_N = sys.maxsize - 1
N_RANGE = click.IntRange(min=0, max=MAX_N)


class RouteError(click.UsageError, ValueError):
    """A --method that cannot serve this k (exit 2)."""


class Route(NamedTuple):
    """One way to compute a_k(n) or a'_k(n).  Its callables look engines up
    on their modules when they run, never at import, so a test or tracer
    that replaces a module attribute changes what the route computes."""

    name: str
    ks: range | None  # the k it serves; None for every k
    ordered: bool  # counts ordered words natively
    sized: bool  # refused past --limit letters
    point: Callable[[int, int], int] | None  # (k, n) -> count
    range: Callable[[int, int], list[int]] | None = None  # (k, n_max) -> counts

    def serves(self, k: int) -> bool:
        return self.ks is None or k in self.ks


#: Every route, in `verify` column order.  `count`, `table` and
#: `oeis-check` pick one through resolve(); `verify` uses each row that
#: serves k.
ROUTES = (
    Route("incl-excl", range(1, 5), False, False,
          lambda k, n: formulas.inclusion_exclusion(k, n),
          lambda k, n_max: formulas.inclusion_exclusion_range(k, n_max)),
    Route("recurrence", range(2, 5), True, False,
          lambda k, n: recurrences.prime(k, n),
          lambda k, n_max: recurrences.prime_range(k, n_max)),
    Route("four-term", range(3, 4), True, False, None,
          lambda k, n_max: recurrences.a3_prime_fourterm_range(n_max)),
    Route("phi", range(4, 5), False, False,
          lambda k, n: formulas.phi_count((k,) * n),
          lambda k, n_max: formulas.phi_count_range(k, n_max)),
    Route("brute", None, False, True,
          lambda k, n: words.count_carlitz_total(MultiplicityVector.uniform(k, n))),
    Route("brute-ordered", None, True, True,
          lambda k, n: words.count_ordered_carlitz(MultiplicityVector.uniform(k, n))),
)
_BY_NAME = {route.name: route for route in ROUTES}

#: `--method auto` takes the first of these that serves k.
AUTO = ("recurrence", "incl-excl", "brute")


def resolve(k: int, ordered: bool, method: str) -> Route:
    """The route that `--method` names for k; RouteError if it cannot serve.

    `auto` picks by AUTO; `brute --ordered` is the forward count-vector DP.
    """
    if method == "auto":
        method = next(m for m in AUTO if _BY_NAME[m].serves(k))
    if method not in METHODS:
        raise RouteError(f"unknown method {method!r}")
    if method == "brute" and ordered:
        method = "brute-ordered"
    route = _BY_NAME[method]
    if not route.serves(k):
        lo, hi = route.ks[0], route.ks[-1]
        span = lo if lo == hi else f"{lo}..{hi}"
        raise RouteError(f"{method} supports k={span} only, not k={k}")
    return route


def _orient(value: int, n: int, native_ordered: bool, ordered: bool) -> int:
    """Convert a count between orientations: a_k(n) = n! * a'_k(n)."""
    if native_ordered == ordered:
        return value
    if ordered:
        return exact_div(value, factorial(n))
    return factorial(n) * value


def _refuse_oversized(route: Route, k: int, n: int, limit: int) -> None:
    """Exit 3 if a size-limited route would count words past --limit letters."""
    if route.sized and k * n > limit:
        what = "ordered" if route.ordered else "total"
        click.echo(f"refused: {what} counting refused: total length {k * n} exceeds limit {limit}", err=True)
        sys.exit(3)


def _values(route: Route, k: int, n_max: int, ordered: bool, limit: int) -> list[int]:
    """Values for n = 0..n_max; routes with a range callable advance incrementally."""
    _refuse_oversized(route, k, min(n_max, limit // k + 1), limit)  # before any n is computed
    if route.range is not None:
        raw = route.range(k, n_max)
    else:
        raw = [route.point(k, n) for n in range(n_max + 1)]
    return [_orient(v, n, route.ordered, ordered) for n, v in enumerate(raw)]


@click.group()
def main():
    """Count Carlitz words (no two adjacent symbols equal) over k copies
    each of n symbols, by brute force, inclusion-exclusion, factorial
    substitution, or recurrence, with exact arithmetic throughout."""
    # Counts outgrow the interpreter's default int/str conversion limit
    # (4300 digits); every value must still print and parse in full.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True, help="Copies per symbol.")
@click.option("--n", type=N_RANGE, required=True, help="Number of symbols.")
@click.option("--ordered", is_flag=True, help="Count ordered words (first occurrences in increasing symbol order).")
@click.option("--method", type=click.Choice(("auto",) + METHODS), default="auto", show_default=True)
@click.option("--trace", is_flag=True, help="Print the signed inclusion-exclusion terms (implies --method incl-excl).")
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_SYMBOL_LIMIT, show_default=True, help="Refuse brute force beyond this total word length.")
def count(k: int, n: int, ordered: bool, method: str, trace: bool, limit: int):
    """Print one exact count."""
    if not trace:
        route = resolve(k, ordered, method)
        _refuse_oversized(route, k, n, limit)
        click.echo(str(_orient(route.point(k, n), n, route.ordered, ordered)))
        return
    if method not in ("auto", "incl-excl"):
        raise click.UsageError("--trace is only available for --method incl-excl")
    if ordered:
        raise click.UsageError("--trace reports the unordered sum; drop --ordered")
    try:
        terms = formulas.terms(k, n)
    except ValueError:
        raise click.UsageError("--trace is only available for k=2,3,4")
    total = 0
    for term in terms:
        pattern = " ".join(
            f"{'stuvw'[i]}={c}" for i, c in enumerate(term.composition)
        )
        click.echo(f"{pattern}  {term.value:+d}")
        total += term.value
    click.echo(f"total {total}")


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True, help="Copies per symbol.")
@click.option("--n-max", type=N_RANGE, required=True, help="Last n of the table.")
@click.option("--ordered", is_flag=True, help="Tabulate ordered counts.")
@click.option("--method", type=click.Choice(("auto",) + METHODS), default="auto", show_default=True)
@click.option("--format", "fmt", type=click.Choice(("text", "csv", "json")), default="text", show_default=True)
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_SYMBOL_LIMIT, show_default=True, help="Refuse brute force beyond this total word length.")
def table(k: int, n_max: int, ordered: bool, method: str, fmt: str, limit: int):
    """Print values for n = 0..n-max."""
    values = _values(resolve(k, ordered, method), k, n_max, ordered, limit)
    if fmt == "csv":
        click.echo("n,value")
        for n, v in enumerate(values):
            click.echo(f"{n},{v}")
    elif fmt == "json":
        payload = [{"n": n, "value": str(v)} for n, v in enumerate(values)]
        click.echo(json.dumps(payload, indent=2))
    else:
        width = len(str(n_max))
        for n, v in enumerate(values):
            click.echo(f"{n:>{width}}  {v}")


@main.command()
@click.option("--k", type=click.IntRange(min=2, max=4), required=True, help="Copies per symbol (2, 3 or 4).")
@click.option("--n-max", type=N_RANGE, default=50, show_default=True, help="Verify n = 0..n-max.")
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_VERIFY_BRUTE_LIMIT, show_default=True, help="Include brute force only while k*n stays within this.")
def verify(k: int, n_max: int, limit: int):
    """Cross-check every supported method against every other.

    All methods are reduced to the unordered count a_k(n); ordered
    engines are scaled by n!, which also exercises the divisibility of
    a_k(n) by n!.  Exits 1 on the first disagreement.
    """
    columns: dict[str, list[int]] = {}
    for route in ROUTES:
        if route.serves(k):
            top = min(n_max, limit // k) if route.sized else n_max
            label = f"{route.name}*n!" if route.ordered else route.name
            columns[label] = _values(route, k, top, False, limit)

    for name, values in columns.items():
        click.echo(f"  {name}: n = 0..{len(values) - 1}")
    (reference, expected), *others = columns.items()
    failures = 0
    for name, values in others:
        bad = next((n for n, v in enumerate(values) if v != expected[n]), None)
        if bad is not None:
            click.echo(f"MISMATCH k={k} n={bad}: {reference}={expected[bad]}, {name}={values[bad]}")
            failures += 1
    if failures:
        click.echo(f"verify k={k}: FAILED ({failures} method(s) disagree)")
        sys.exit(1)
    click.echo(f"verify k={k}: all {len(columns)} methods agree for n = 0..{n_max}")


@main.command("oeis-check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=click.IntRange(min=1), required=True, help="Copies per symbol.")
@click.option("--ordered", is_flag=True, help="Compare against ordered counts.")
@click.option("--offset", type=int, default=0, show_default=True, help="Sequence offset: file index i is compared at n = i - offset.")
@click.option("--method", type=click.Choice(("auto",) + METHODS), default="auto", show_default=True)
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_SYMBOL_LIMIT, show_default=True, help="Refuse brute force beyond this total word length.")
def oeis_check(file: str, k: int, ordered: bool, offset: int, method: str, limit: int):
    """Compare a local OEIS b-file against computed values."""
    route = resolve(k, ordered, method)
    try:
        entries = read_bfile(file)
    except BFileFormatError as exc:
        click.echo(f"malformed b-file: {exc}", err=True)
        sys.exit(2)
    if not entries:
        click.echo("0/0 match")
        return
    first, last = entries[0].index, entries[-1].index
    if first < offset or last - offset > MAX_N:
        index, what = (first, "negative n") if first < offset else (last, f"n past {MAX_N}")
        click.echo(f"index {index} with offset {offset} gives {what}", err=True)
        sys.exit(2)
    computed = _values(route, k, last - offset, ordered, limit)
    bad = [e for e in entries if computed[e.index - offset] != e.value]
    matched = f"{len(entries) - len(bad)}/{len(entries)} match"
    if not bad:
        click.echo(matched)
        return
    entry = bad[0]
    click.echo(
        f"{matched}; first mismatch at index {entry.index}: "
        f"file has {entry.value}, computed {computed[entry.index - offset]}"
    )
    sys.exit(1)


if __name__ == "__main__":
    main()
