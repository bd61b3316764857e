"""Strict reader for OEIS b-files.

Format, applied bit-exactly: UTF-8 text; lines matching ^#.* are
comments and ignored; every other line must match
^\\s*(-?\\d+)\\s+(-?\\d+)\\s*$ (index and value), with \\d and \\s
matching ASCII digits and whitespace only.  Indices must be
strictly increasing down the file.  Anything else, including blank
lines, is a format error, because a silently skipped line could hide a
real mismatch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

_DATA_LINE = re.compile(r"^\s*(-?\d+)\s+(-?\d+)\s*$", re.ASCII)


class BFileFormatError(ValueError):
    """A b-file line is neither a comment nor a well-formed data line,
    or indices fail to increase strictly."""


@dataclass(frozen=True)
class BFileEntry:
    index: int
    value: int


def parse_bfile_lines(lines: Iterable[str]) -> list[BFileEntry]:
    """Parse b-file lines (without trailing newlines) into entries."""
    entries: list[BFileEntry] = []
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#"):
            continue
        m = _DATA_LINE.match(line)
        if m is None:
            raise BFileFormatError(f"line {lineno}: not a b-file data line: {line!r}")
        index, value = int(m.group(1)), int(m.group(2))
        if entries and index <= entries[-1].index:
            raise BFileFormatError(
                f"line {lineno}: index {index} does not increase "
                f"(previous index {entries[-1].index})"
            )
        entries.append(BFileEntry(index, value))
    return entries


def read_bfile(path: str | Path) -> list[BFileEntry]:
    """Read and parse a b-file from disk; bytes that are not UTF-8 are a
    format error, like any other unreadable line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BFileFormatError(f"byte {exc.start}: not UTF-8 text") from exc
    # Split at "\n" only; read_text() made "\r\n" and "\r" into "\n".
    lines = text.split("\n")
    return parse_bfile_lines(lines[:-1] if lines[-1] == "" else lines)
