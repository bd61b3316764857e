"""Command-line surface for exact Carlitz-word counting.

Usage:
    carlitz count --k 3 --n 3                         # 174
    carlitz count --k 3 --n 3 --trace                 # per-term breakdown
    carlitz count --k 2 --n 6 --ordered               # 3655
    carlitz table --k 2 --n-max 6 --format csv
    carlitz verify --k 3 --n-max 50                   # cross-method check
    carlitz oeis-check b114938.txt --k 2              # diff against a b-file

All printed values are exact decimal integers, never rounded or
abbreviated.  `table` writes each row as soon as its value is computed
and `oeis-check` compares each b-file entry as the values pass it, so
their memory is one engine window plus the b-file.  On the recurrence
route both compute in decimal.Decimal under exact.EXACT, which traps
every rounding, so the values stay exact and print and parse in time
linear in their digits (CPython's int <-> str is quadratic); every other
route, and `count` and `verify`, compute in int.  Exit codes: 0
success, 1 verification or b-file mismatch, 2 usage or format error, 3
refusal of an oversized brute-force request or a route that ran out of
memory (one stderr line, no traceback), 130 interrupted by Ctrl-C (one
stderr line), 141 stdout closed by its reader (nothing more written, as
when piped into `head`).  A refusal, usage or format error, or a route
that fails before its first value leaves stdout empty; a table or a
--trace that runs out of memory later keeps the lines already written.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, NamedTuple

import click

from . import exact, formulas, recurrences, words
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
    range: Callable[..., Iterable[int]] | None = None  # (k, n_max) -> counts for n = 0..n_max
    decimal: bool = False  # range also takes a unit (default 1) that its counts are multiples of

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
          lambda k, n_max, unit=1: recurrences.prime_stream(k, n_max, unit), decimal=True),
    Route("four-term", range(3, 4), True, False, None,
          lambda k, n_max: recurrences.a3_prime_fourterm_range(n_max)),
    Route("phi", range(4, 5), False, False,
          lambda k, n: formulas.phi_count((k,) * n),
          lambda k, n_max: formulas.phi_count_stream(k, n_max)),
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


def _orient(value: int, n_factorial: int, ordered: bool) -> int:
    """Convert a count of the other orientation to this one: a_k(n) = n! * a'_k(n)."""
    return exact_div(value, n_factorial) if ordered else n_factorial * value


def _refuse_oversized(route: Route, k: int, n: int, limit: int) -> None:
    """Exit 3 if a size-limited route would count words past --limit letters."""
    if route.sized and k * n > limit:
        what = "ordered" if route.ordered else "total"
        click.echo(f"refused: {what} counting refused: total length {k * n} exceeds limit {limit}", err=True)
        sys.exit(3)


@contextmanager
def _exit_3_on_memory_error(route: Route, k: int, n: int) -> Iterator[None]:
    """Turn a MemoryError inside a route call into one stderr line and exit 3."""
    try:
        yield
    except MemoryError:
        click.echo(f"out of memory: {route.name} for k={k} up to n={n}", err=True)
        sys.exit(3)


# decimal is imported by the two helpers below, not with this module: it
# adds a few ms to the start of every command.
def _unit(route: Route):
    """The 1 that `table` and `oeis-check` compute route's values as
    multiples of: Decimal(1) for a decimal route, whose values are then
    exact Decimals (drawn under _exact_decimal()) that print and parse in
    linear time; 1 for every other route."""
    if not route.decimal:
        return 1
    from decimal import Decimal

    return Decimal(1)


@contextmanager
def _exact_decimal() -> Iterator[None]:
    """Run the body under decimal.localcontext(exact.EXACT), so any
    rounding raises; the caller's decimal context comes back afterwards."""
    from decimal import localcontext

    with localcontext(exact.EXACT):
        yield


def _values(route: Route, k: int, n_max: int, ordered: bool, limit: int,
            unit=1, wanted: Iterable[int] | None = None) -> Iterator[int]:
    """Values for n = 0..n_max, or only at the increasing n in wanted,
    each computed as the caller takes it, as multiples of unit; routes
    with a range callable advance incrementally.  A refusal exits here,
    before any n is computed."""
    _refuse_oversized(route, k, min(n_max, limit // k + 1), limit)
    return _stream(route, k, n_max, ordered, unit, wanted)


def _stream(route: Route, k: int, n_max: int, ordered: bool, unit,
            wanted: Iterable[int] | None) -> Iterator[int]:
    # The guard stays open while the caller draws values, so a MemoryError
    # at any n, not only in setting up the route, exits 3.
    with _exit_3_on_memory_error(route, k, n_max):
        if route.range is None:
            raw = (route.point(k, n) for n in range(n_max + 1))
        else:
            raw = route.range(k, n_max, unit) if route.decimal else route.range(k, n_max)
        scaled = route.ordered != ordered
        wanted = iter(range(n_max + 1) if wanted is None else wanted)
        want = next(wanted, None)
        n_factorial = unit  # a running n!, so no table of every m! is kept
        for n, value in enumerate(raw):
            if scaled:
                n_factorial *= n or 1
            if n == want:  # only the values wanted change orientation
                yield _orient(value, n_factorial, ordered) if scaled else value
                want = next(wanted, None)


class _Main(click.Group):
    """The command group, with a documented exit for an interrupt and for
    a reader that closes stdout, in place of click's exit 1."""

    def invoke(self, ctx: click.Context):
        # Counts outgrow the interpreter's default int/str conversion limit
        # (4300 digits); every value must still print and parse in full.
        # The caller's limit comes back when the command returns.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            return super().invoke(ctx)
        except KeyboardInterrupt:
            click.echo("interrupted", err=True)
            sys.exit(130)
        except BrokenPipeError:
            # Point stdout at devnull so the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(141)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


@click.group(cls=_Main)
def main():
    """Count Carlitz words (no two adjacent symbols equal) over k copies
    each of n symbols, by brute force, inclusion-exclusion, factorial
    substitution, or recurrence, with exact arithmetic throughout."""


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
        with _exit_3_on_memory_error(route, k, n):
            value = route.point(k, n)
            if route.ordered != ordered:
                value = _orient(value, factorial(n), ordered)
        click.echo(str(value))
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
    with _exit_3_on_memory_error(_BY_NAME["incl-excl"], k, n):
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
    """Print values for n = 0..n-max, each row as soon as it is computed."""
    route = resolve(k, ordered, method)
    with _exact_decimal():
        rows = enumerate(_values(route, k, n_max, ordered, limit, _unit(route)))
        # What opens the table (the csv header, json's "[") goes out with the
        # first row, so a route that fails before it leaves stdout empty.
        if fmt == "csv":
            head = "n,value\n"
            for n, v in rows:
                click.echo(f"{head}{n},{v}")
                head = ""
        elif fmt == "json":
            # The bytes of json.dumps(payload, indent=2) for payload
            # [{"n": n, "value": str(v)}, ...]: decimal strings need no escapes.
            head = "[\n"
            for n, v in rows:
                click.echo(f'{head}  {{\n    "n": {n},\n    "value": "{v}"\n  }}', nl=False)
                head = ",\n"
            click.echo("\n]")
        else:
            width = len(str(n_max))
            for n, v in rows:
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
            columns[label] = list(_values(route, k, top, False, limit))

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
    """Compare a local OEIS b-file against computed values, each entry as
    the values pass its n."""
    route = resolve(k, ordered, method)
    unit = _unit(route)
    try:
        entries = read_bfile(file, type(unit))  # values of the type they are compared with
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
    wanted = (entry.index - offset for entry in entries)
    with _exact_decimal():
        computed = _values(route, k, last - offset, ordered, limit, unit, wanted)
        mismatches, first = 0, None
        for entry, value in zip(entries, computed):
            if value != entry.value:
                mismatches += 1
                first = first or (entry, value)
        matched = f"{len(entries) - mismatches}/{len(entries)} match"
        if not mismatches:
            click.echo(matched)
            return
        entry, value = first
        click.echo(
            f"{matched}; first mismatch at index {entry.index}: "
            f"file has {entry.value}, computed {value}"
        )
    sys.exit(1)


if __name__ == "__main__":
    main()
