"""Strict reader for OEIS b-files.

Format, applied bit-exactly: UTF-8 text; lines matching ^#.* are
comments and ignored; every other line must match
^\\s*(-?\\d+)\\s+(-?\\d+)\\s*$ (index and value), with \\d and \\s
matching ASCII digits and whitespace only.  Indices must be
strictly increasing down the file.  Anything else, including blank
lines, is a format error, because a silently skipped line could hide a
real mismatch.

Indices are ints.  Values are ints by default, or any exact integer type
built from a decimal string, such as decimal.Decimal: a caller that
compares them with Decimals parses them as Decimals, in linear time,
rather than as ints, whose conversion is quadratic in the digits.  A
zero value is always that type's plain zero, so "-0" reads as 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

_DATA_LINE = re.compile(r"^\s*(-?\d+)\s+(-?\d+)\s*$", re.ASCII)


class BFileFormatError(ValueError):
    """A b-file line is neither a comment nor a well-formed data line,
    or indices fail to increase strictly."""


@dataclass(frozen=True)
class BFileEntry:
    index: int
    value: int  # or the number type the file was parsed with


def parse_bfile_lines(lines: Iterable[str], number: Callable[[str], int] = int) -> list[BFileEntry]:
    """Parse b-file lines (without trailing newlines) into entries, each
    value read by number."""
    entries: list[BFileEntry] = []
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#"):
            continue
        m = _DATA_LINE.match(line)
        if m is None:
            raise BFileFormatError(f"line {lineno}: not a b-file data line: {line!r}")
        # number("-0") may be a negative zero, as Decimal("-0") is.
        index, value = int(m.group(1)), number(m.group(2)) or number("0")
        if entries and index <= entries[-1].index:
            raise BFileFormatError(
                f"line {lineno}: index {index} does not increase "
                f"(previous index {entries[-1].index})"
            )
        entries.append(BFileEntry(index, value))
    return entries


def _lines(file: BinaryIO) -> Iterator[str]:
    """The file's lines, decoded one at a time; line ends are "\\n", "\\r\\n"
    and "\\r", as in text mode.  A byte that is not UTF-8 is reported at
    its offset into the file."""
    offset = 0
    for raw in file:  # split at b"\n" only; "\r" is never part of a multibyte character
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BFileFormatError(f"byte {offset + exc.start}: not UTF-8 text") from exc
        offset += len(raw)
        yield from text.removesuffix("\n").removesuffix("\r").split("\r")


def read_bfile(path: str | Path, number: Callable[[str], int] = int) -> list[BFileEntry]:
    """Read and parse a b-file from disk, one line at a time, each value
    read by number; bytes that are not UTF-8 are a format error, like any
    other unreadable line, and the one reported wherever else the file
    fails."""
    with open(path, "rb") as file:
        lines = _lines(file)
        try:
            return parse_bfile_lines(lines, number)
        except BFileFormatError:
            for _ in lines:  # a later byte that is not UTF-8 raises instead
                pass
            raise
