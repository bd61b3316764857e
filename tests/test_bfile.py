"""Tests for the strict b-file reader."""

from decimal import Decimal

import pytest

from carlitz.bfile import BFileEntry, BFileFormatError, parse_bfile_lines, read_bfile


def test_parses_data_and_comments():
    lines = [
        "# A114938: Carlitz words over pairs",
        "0 1",
        "1 0",
        "# interior comment",
        "2 2",
        "  3   30  ",
    ]
    got = parse_bfile_lines(lines)
    assert got == [
        BFileEntry(0, 1),
        BFileEntry(1, 0),
        BFileEntry(2, 2),
        BFileEntry(3, 30),
    ]


def test_tabs_and_negative_numbers_parse():
    got = parse_bfile_lines(["-2\t-7", "5\t1"])
    assert got == [BFileEntry(-2, -7), BFileEntry(5, 1)]


@pytest.mark.parametrize("number", [int, Decimal])
def test_values_parse_as_the_given_type(tmp_path, number):
    # Indices stay int; every zero is the type's plain zero, so it prints
    # "0" as an int does, never "-0".
    lines = ["0 -0", "1 007", "2 -00", "3 -12", "4 " + "9" * 4000]
    got = parse_bfile_lines(lines, number)
    assert [e.value for e in got] == [0, 7, 0, -12, 10**4000 - 1]
    assert [type(e.index) for e in got] == [int] * 5
    assert all(type(e.value) is number for e in got)
    assert [str(e.value) for e in got[:4]] == ["0", "7", "0", "-12"]
    path = tmp_path / "b.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read_bfile(path, number) == got


def test_empty_input():
    assert parse_bfile_lines([]) == []
    assert parse_bfile_lines(["# only a comment"]) == []


@pytest.mark.parametrize(
    "bad",
    [
        "oops",
        "12",
        "1 2 3",
        "1 2.5",
        "a 3",
        "",
        "   ",
        "1, 2",
        "1 ٣٠",
        "٤ 1",
        "0\u00a01",
    ],
)
def test_malformed_lines_raise(bad):
    with pytest.raises(BFileFormatError) as exc:
        parse_bfile_lines(["0 1", bad])
    assert "line 2" in str(exc.value)


def test_indices_must_strictly_increase():
    with pytest.raises(BFileFormatError):
        parse_bfile_lines(["0 1", "0 2"])
    with pytest.raises(BFileFormatError):
        parse_bfile_lines(["3 1", "2 5"])


def test_read_bfile_from_disk(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# header\n0 1\n1 0\n2 2\n", encoding="utf-8")
    assert read_bfile(path) == [BFileEntry(0, 1), BFileEntry(1, 0), BFileEntry(2, 2)]


def test_read_bfile_large_values(tmp_path):
    big = 16438575600
    path = tmp_path / "b.txt"
    path.write_text(f"6 {big}\n", encoding="utf-8")
    assert read_bfile(path) == [BFileEntry(6, big)]


#: Characters str.splitlines() breaks lines at, besides "\n" and "\r".
#: Only "\v" and "\f" are ASCII whitespace to the data-line pattern.
NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def read_text(tmp_path, text):
    path = tmp_path / "b.txt"
    path.write_bytes(text.encode("utf-8"))
    return read_bfile(path)


@pytest.mark.parametrize("ch", NOT_NEWLINES)
def test_comment_keeps_characters_that_are_not_newlines(tmp_path, ch):
    assert read_text(tmp_path, f"# note{ch}3 31\n0 1\n") == [BFileEntry(0, 1)]


@pytest.mark.parametrize("ch", NOT_NEWLINES)
def test_data_line_keeps_characters_that_are_not_newlines(tmp_path, ch):
    inner = f"2{ch}5"
    trailing = f"2 5{ch}"
    if ch in "\v\f":
        assert read_text(tmp_path, f"0 1\n{inner}\n") == [BFileEntry(0, 1), BFileEntry(2, 5)]
        assert read_text(tmp_path, f"0 1\n{trailing}") == [BFileEntry(0, 1), BFileEntry(2, 5)]
        return
    for line in (inner, trailing):
        with pytest.raises(BFileFormatError) as exc:
            read_text(tmp_path, f"0 1\n{line}\n")
        assert str(exc.value) == f"line 2: not a b-file data line: {line!r}"


@pytest.mark.parametrize("text,entries", [
    ("# h\r\n0 1\r\n1 0\r\n", [BFileEntry(0, 1), BFileEntry(1, 0)]),
    ("0 1\n1 0", [BFileEntry(0, 1), BFileEntry(1, 0)]),
    ("0 1\r\n1 0", [BFileEntry(0, 1), BFileEntry(1, 0)]),
    ("", []),
    ("# only a comment\n", []),
])
def test_line_endings(tmp_path, text, entries):
    assert read_text(tmp_path, text) == entries


@pytest.mark.parametrize("text,lineno", [("\n", 1), ("0 1\n\n", 2), ("0 1\r\n\r\n", 2)])
def test_blank_lines_stay_errors(tmp_path, text, lineno):
    with pytest.raises(BFileFormatError) as exc:
        read_text(tmp_path, text)
    assert str(exc.value).startswith(f"line {lineno}: ")


def read_bytes(tmp_path, data):
    path = tmp_path / "b.txt"
    path.write_bytes(data)
    return read_bfile(path)


@pytest.mark.parametrize("tail,at", [(b"\xff\n", 0), (b"7 \xe2\x82\n", 2), (b"7 \xe2\x82", 2)])
def test_bad_byte_is_reported_at_its_file_offset(tmp_path, tail, at):
    # Past 20 KiB of valid lines, so past the first chunk a text-mode
    # reader would decode; the offset counts from the start of the file.
    head = b"".join(b"%d %d\n" % (n, n * n) for n in range(2500))
    assert len(head) > 20 * 1024
    with pytest.raises(BFileFormatError) as exc:
        read_bytes(tmp_path, head + tail)
    assert str(exc.value) == f"byte {len(head) + at}: not UTF-8 text"


def test_bad_byte_outranks_an_earlier_bad_line(tmp_path):
    # Every byte must be UTF-8 before any line counts, wherever it fails.
    with pytest.raises(BFileFormatError) as exc:
        read_bytes(tmp_path, b"0 1\nnot numbers\n2 5\n\xff\n")
    assert str(exc.value) == "byte 20: not UTF-8 text"


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n"])
def test_line_numbers_follow_every_line_end(tmp_path, sep):
    text = sep.join(["# h", "0 1", "1 0", "2 x"]) + sep
    with pytest.raises(BFileFormatError) as exc:
        read_text(tmp_path, text)
    assert str(exc.value) == "line 4: not a b-file data line: '2 x'"


@pytest.mark.parametrize("text,lineno", [
    ("0 1\r\r\n1 0\n", 2),  # "\r" then "\r\n": two line ends
    ("0 1\n\r1 0\n", 2),
    ("0 1\r\r", 2),
])
def test_mixed_line_ends_keep_their_blank_lines(tmp_path, text, lineno):
    with pytest.raises(BFileFormatError) as exc:
        read_text(tmp_path, text)
    assert str(exc.value) == f"line {lineno}: not a b-file data line: ''"


@pytest.mark.parametrize("text", ["0 1\r1 0", "0 1\r1 0\r", "0 1\r1 0\r\n", "0 1\n1 0\r"])
def test_last_line_end_is_optional(tmp_path, text):
    assert read_text(tmp_path, text) == [BFileEntry(0, 1), BFileEntry(1, 0)]
