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

import click

from . import formulas, recurrences, words
from .bfile import BFileFormatError, read_bfile
from .exact import exact_div, factorial
from .words import DEFAULT_SYMBOL_LIMIT, MultiplicityVector, SizeLimitError

METHODS = ("brute", "incl-excl", "phi", "recurrence")

#: Brute force joins `verify` only while the word multiset stays at most
#: this long; beyond that enumeration would dominate the whole run.
DEFAULT_VERIFY_BRUTE_LIMIT = 15


def _check_method(k: int, ordered: bool, method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "recurrence" and k not in (2, 3, 4):
        raise ValueError(f"recurrence supports k=2,3,4 only, not k={k}")
    if method == "incl-excl" and not 1 <= k <= 4:
        raise ValueError(f"incl-excl supports k=1..4 only, not k={k}")
    if method == "phi" and (k != 4 or ordered):
        raise ValueError("phi supports only k=4 unordered counts")


def _auto_method(k: int) -> str:
    if k in (2, 3, 4):
        return "recurrence"
    if k == 1:
        return "incl-excl"
    return "brute"


def _incl_excl_total(k: int, n: int) -> int:
    if k == 1:
        return formulas.a1(n)
    if k == 2:
        return formulas.a2_inclusion_exclusion(n)
    if k == 3:
        return formulas.a3_inclusion_exclusion(n)
    return formulas.a4_inclusion_exclusion(n)


def _compute_one(k: int, n: int, ordered: bool, method: str, limit: int) -> int:
    """One value by one method; SizeLimitError propagates to the caller."""
    if method == "brute":
        mv = MultiplicityVector.uniform(k, n)
        if ordered:
            return words.count_ordered_carlitz(mv, limit=limit)
        return words.count_carlitz_total(mv, limit=limit)
    if method == "recurrence":
        if k == 2:
            prime = recurrences.a2_prime_rec(n)
        elif k == 3:
            prime = recurrences.a3_prime_coupled(n).p
        else:
            prime = recurrences.a4_prime_coupled(n).p
        return prime if ordered else factorial(n) * prime
    if method == "phi":
        return formulas.phi_count((k,) * n)
    total = _incl_excl_total(k, n)
    return exact_div(total, factorial(n)) if ordered else total


def _compute_range(
    k: int, n_max: int, ordered: bool, method: str, limit: int
) -> list[int]:
    """Values for n = 0..n_max; recurrence and phi advance incrementally."""
    if method == "recurrence":
        if k == 2:
            primes = recurrences.a2_prime_range(n_max)
        elif k == 3:
            primes = [s.p for s in recurrences.a3_prime_coupled_range(n_max)]
        else:
            primes = [s.p for s in recurrences.a4_prime_coupled_range(n_max)]
        if ordered:
            return primes
        return [factorial(n) * p for n, p in enumerate(primes)]
    if method == "phi":
        return formulas.phi_count_range(k, n_max)
    return [_compute_one(k, n, ordered, method, limit) for n in range(n_max + 1)]


def _term_stream(k: int, n: int):
    if k == 2:
        return formulas.a2_terms(n)
    if k == 3:
        return formulas.a3_terms(n)
    return formulas.a4_terms(n)


_TERM_LETTERS = "stuvw"


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
@click.option("--n", type=click.IntRange(min=0), required=True, help="Number of symbols.")
@click.option("--ordered", is_flag=True, help="Count ordered words (first occurrences in increasing symbol order).")
@click.option("--method", type=click.Choice(("auto",) + METHODS), default="auto", show_default=True)
@click.option("--trace", is_flag=True, help="Print the signed inclusion-exclusion terms (implies --method incl-excl).")
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_SYMBOL_LIMIT, show_default=True, help="Refuse brute force beyond this total word length.")
def count(k: int, n: int, ordered: bool, method: str, trace: bool, limit: int):
    """Print one exact count."""
    if trace:
        if method == "auto":
            method = "incl-excl"
        if method != "incl-excl":
            raise click.UsageError("--trace is only available for --method incl-excl")
        if ordered:
            raise click.UsageError("--trace reports the unordered sum; drop --ordered")
        if k not in (2, 3, 4):
            raise click.UsageError("--trace is only available for k=2,3,4")
    elif method == "auto":
        method = _auto_method(k)
    try:
        _check_method(k, ordered, method)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        value = _compute_one(k, n, ordered, method, limit)
    except SizeLimitError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(3)
    if trace:
        for term in _term_stream(k, n):
            pattern = " ".join(
                f"{_TERM_LETTERS[i]}={c}" for i, c in enumerate(term.composition)
            )
            click.echo(f"{pattern}  {term.value:+d}")
        click.echo(f"total {value}")
    else:
        click.echo(str(value))


@main.command()
@click.option("--k", type=click.IntRange(min=1), required=True, help="Copies per symbol.")
@click.option("--n-max", type=click.IntRange(min=0), required=True, help="Last n of the table.")
@click.option("--ordered", is_flag=True, help="Tabulate ordered counts.")
@click.option("--method", type=click.Choice(("auto",) + METHODS), default="auto", show_default=True)
@click.option("--format", "fmt", type=click.Choice(("text", "csv", "json")), default="text", show_default=True)
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_SYMBOL_LIMIT, show_default=True, help="Refuse brute force beyond this total word length.")
def table(k: int, n_max: int, ordered: bool, method: str, fmt: str, limit: int):
    """Print values for n = 0..n-max."""
    if method == "auto":
        method = _auto_method(k)
    try:
        _check_method(k, ordered, method)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        values = _compute_range(k, n_max, ordered, method, limit)
    except SizeLimitError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(3)
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
@click.option("--n-max", type=click.IntRange(min=0), default=50, show_default=True, help="Verify n = 0..n-max.")
@click.option("--limit", type=click.IntRange(min=0), default=DEFAULT_VERIFY_BRUTE_LIMIT, show_default=True, help="Include brute force only while k*n stays within this.")
def verify(k: int, n_max: int, limit: int):
    """Cross-check every supported method against every other.

    All methods are reduced to the unordered count a_k(n); ordered
    engines are scaled by n!, which also exercises the divisibility of
    a_k(n) by n!.  Exits 1 on the first disagreement.
    """
    columns: dict[str, list[int]] = {}
    columns["incl-excl"] = _compute_range(k, n_max, False, "incl-excl", 0)
    columns["recurrence*n!"] = _compute_range(k, n_max, False, "recurrence", 0)
    if k == 3:
        fourterm = recurrences.a3_prime_fourterm_range(n_max)
        columns["four-term*n!"] = [factorial(n) * p for n, p in enumerate(fourterm)]
    if k == 4:
        columns["phi"] = _compute_range(k, n_max, False, "phi", 0)
    brute_n_max = min(n_max, limit // k)
    brute_total = [
        words.count_carlitz_total(MultiplicityVector.uniform(k, n))
        for n in range(brute_n_max + 1)
    ]
    brute_ordered = [
        words.count_ordered_carlitz(MultiplicityVector.uniform(k, n))
        for n in range(brute_n_max + 1)
    ]
    columns["brute"] = brute_total
    columns["brute-ordered*n!"] = [
        factorial(n) * p for n, p in enumerate(brute_ordered)
    ]

    for name, values in columns.items():
        click.echo(f"  {name}: n = 0..{len(values) - 1}")
    reference = "incl-excl"
    failures = 0
    for name, values in columns.items():
        if name == reference:
            continue
        for n, v in enumerate(values):
            expected = columns[reference][n]
            if v != expected:
                click.echo(
                    f"MISMATCH k={k} n={n}: {reference}={expected}, {name}={v}"
                )
                failures += 1
                break
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
    if method == "auto":
        method = _auto_method(k)
    try:
        _check_method(k, ordered, method)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        entries = read_bfile(file)
    except BFileFormatError as exc:
        click.echo(f"malformed b-file: {exc}", err=True)
        sys.exit(2)
    if not entries:
        click.echo("0/0 match")
        return
    ns = [e.index - offset for e in entries]
    if ns[0] < 0:
        click.echo(
            f"index {entries[0].index} with offset {offset} gives negative n",
            err=True,
        )
        sys.exit(2)
    try:
        computed = _compute_range(k, max(ns), ordered, method, limit)
    except SizeLimitError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(3)
    matches = 0
    first_bad = None
    for entry, n in zip(entries, ns):
        if computed[n] == entry.value:
            matches += 1
        elif first_bad is None:
            first_bad = (entry, n)
    if first_bad is None:
        click.echo(f"{matches}/{len(entries)} match")
        return
    entry, n = first_bad
    click.echo(
        f"{matches}/{len(entries)} match; first mismatch at index {entry.index}: "
        f"file has {entry.value}, computed {computed[n]}"
    )
    sys.exit(1)


if __name__ == "__main__":
    main()
