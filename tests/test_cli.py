"""End-to-end tests of the command-line surface via CliRunner."""

import decimal
import json
import math
import os
import signal
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import carlitz
from carlitz import cli, formulas, recurrences, words
from carlitz.cli import METHODS, ROUTES, main, resolve
from carlitz.exact import EXACT

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


class TestCheckMethod:
    def test_accepts_supported_methods(self):
        resolve(3, False, "incl-excl")
        resolve(4, False, "phi")
        resolve(7, False, "brute")
        resolve(2, True, "recurrence")

    def test_rejects_unsupported_methods(self):
        with pytest.raises(ValueError):
            resolve(3, False, "phi")
        with pytest.raises(ValueError):
            resolve(5, True, "phi")
        with pytest.raises(ValueError):
            resolve(5, False, "recurrence")
        with pytest.raises(ValueError):
            resolve(1, False, "recurrence")
        with pytest.raises(ValueError):
            resolve(5, False, "incl-excl")
        with pytest.raises(ValueError):
            resolve(2, False, "typo")


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("method", ["auto", "brute", "incl-excl", "phi", "recurrence"])
def test_route_resolution_grid(runner, k, ordered, method):
    supported = {
        "auto": True,
        "brute": True,
        "incl-excl": 1 <= k <= 4,
        "phi": k == 4,
        "recurrence": 2 <= k <= 4,
    }[method]
    flag = ["--ordered"] if ordered else []
    r = run(runner, "count", "--k", k, "--n", 2, "--method", method, *flag)
    assert r.exit_code == (0 if supported else 2), r.output


def claimed_ks(route):
    """The k a row claims; k 1..6 stand in for a row that serves every k."""
    return route.ks if route.ks is not None else range(1, 7)


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.name)
def test_every_claimed_k_is_served(route):
    assert route.point is not None or route.range is not None
    scale = [math.factorial(n) if route.ordered else 1 for n in range(6)]
    for k in claimed_ks(route):
        expected = [formulas.phi_count((k,) * n) for n in range(6)]
        if route.point is not None:
            assert [route.point(k, n) * scale[n] for n in range(6)] == expected
        if route.range is not None:
            assert [v * f for v, f in zip(route.range(k, 5), scale)] == expected


@pytest.mark.parametrize("route", [r for r in ROUTES if r.ks is not None and r.name in METHODS],
                         ids=lambda route: route.name)
@pytest.mark.parametrize("ordered", [False, True])
def test_method_outside_claimed_ks_exits_2(runner, route, ordered):
    flag = ["--ordered"] if ordered else []
    for k in set(range(1, 7)) - set(claimed_ks(route)):
        r = run(runner, "count", "--k", k, "--n", 2, "--method", route.name, *flag)
        assert (r.exit_code, r.stdout) == (2, ""), r.output
        assert_clean_exit(r)
        assert r.stderr.splitlines()[-1].endswith(f" not k={k}"), r.stderr


@pytest.mark.parametrize("method,k,line", [
    ("incl-excl", 5, "Error: incl-excl supports k=1..4 only, not k=5"),
    ("recurrence", 1, "Error: recurrence supports k=2..4 only, not k=1"),
    ("phi", 3, "Error: phi supports k=4 only, not k=3"),
])
def test_route_refusal_line_is_pinned(runner, method, k, line):
    r = run(runner, "count", "--k", k, "--n", 2, "--method", method)
    assert (r.exit_code, r.stdout, r.stderr.splitlines()[-1]) == (2, "", line)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 6),
    n=st.integers(0, 8),
    method=st.sampled_from(["auto", "brute", "incl-excl", "phi", "recurrence"]),
    ordered=st.booleans(),
    limit=st.integers(0, 40),
)
def test_count_grid_matches_phi(k, n, method, ordered, limit):
    flag = ["--ordered"] if ordered else []
    r = run(CliRunner(), "count", "--k", k, "--n", n, "--method", method,
            "--limit", limit, *flag)
    assert r.exit_code in (0, 2, 3), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    if r.exit_code == 0:
        assert r.stdout == f"{phi_value(k, n, ordered)}\n"
    if r.exit_code == 3:
        assert k * n > limit


def phi_value(k, n, ordered):
    total = formulas.phi_count((k,) * n)
    return total // math.factorial(n) if ordered else total


def brute_past_limit(k, n, ordered, method, limit):
    """True iff the CLI must refuse: a brute route asked for k*n > limit."""
    try:
        route = resolve(k, ordered, method)
    except ValueError:
        return False
    return route.sized and k * n > limit


def assert_clean_exit(r):
    """An exit code from the documented set, no escaping exception, and
    one explaining stderr line for exits 2 and 3.  Click's usage errors
    put that line after a fixed Usage/Try preamble."""
    assert r.exit_code in (0, 1, 2, 3), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), r.exception
    if r.exit_code in (2, 3):
        lines = r.stderr.splitlines()
        if lines and lines[0].startswith("Usage: "):
            assert lines[1].startswith("Try ") and lines[2] == "", r.stderr
            lines = lines[3:]
        assert len(lines) == 1, r.stderr


@pytest.mark.parametrize("args,stderr", [
    (("count", "--k", 3, "--n", 9, "--method", "brute"),
     "refused: total counting refused: total length 27 exceeds limit 24\n"),
    (("count", "--k", 2, "--n", 13, "--ordered", "--method", "brute"),
     "refused: ordered counting refused: total length 26 exceeds limit 24\n"),
    # A range is refused at its first n past the limit, before any n runs.
    (("table", "--k", 3, "--n-max", 9, "--method", "brute"),
     "refused: total counting refused: total length 27 exceeds limit 24\n"),
])
def test_brute_refusal_is_pinned(runner, args, stderr):
    r = run(runner, *args)
    assert (r.exit_code, r.stdout, r.stderr) == (3, "", stderr)


def test_brute_within_default_limit_runs(runner):
    r = run(runner, "count", "--k", 2, "--n", 12, "--method", "brute")
    assert (r.exit_code, r.stdout, r.stderr) == (0, f"{phi_value(2, 12, False)}\n", "")


@pytest.mark.parametrize("args", [
    ("count", "--k", 2, "--n", 10**23),
    ("table", "--k", 3, "--n-max", sys.maxsize),
    ("verify", "--k", 2, "--n-max", 10**23),
    ("oeis-check", "BFILE", "--k", 2, "--offset", -10**30),
    ("oeis-check", "BFILE", "--k", 2, "--offset", -10**30, "--method", "incl-excl"),
], ids=["count", "table", "verify", "oeis-check", "oeis-check-incl-excl"])
def test_unindexable_n_exits_2(runner, tmp_path, args):
    # An n that no Python sequence can index is a usage error.
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 1\n1 0\n", encoding="utf-8")
    r = run(runner, *(bfile if a == "BFILE" else a for a in args))
    assert (r.exit_code, r.stdout) == (2, "")
    assert_clean_exit(r)


#: The child runs the CLI with its address space capped (256 MB unless
#: the test says otherwise), so an allocation past that fails in the
#: child, soon and without touching the host's memory.
CAPPED_CHILD = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = int(sys.argv[1])
cap = cap if hard == resource.RLIM_INFINITY else min(hard, cap)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from carlitz.cli import main
main(sys.argv[2:])
"""


#: The environment of a child CLI: it imports the carlitz under test.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(carlitz.__file__).parents[1]))


def run_capped(*args, cap=1 << 28, timeout=60):
    return subprocess.run([sys.executable, "-c", CAPPED_CHILD, str(cap), *map(str, args)],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=timeout)


@pytest.mark.parametrize("args,stderr", [
    # The range allocates its n_max + 1 results first.
    (("table", "--k", 2, "--n-max", 10**12, "--method", "incl-excl"),
     f"out of memory: incl-excl for k=2 up to n={10**12}\n"),
    (("count", "--k", 4, "--n", 10**12, "--method", "phi"),
     f"out of memory: phi for k=4 up to n={10**12}\n"),
    # The inclusion-exclusion range tabulates up to the last index at once.
    (("oeis-check", "BFILE", "--k", 2, "--method", "incl-excl"),
     f"out of memory: incl-excl for k=2 up to n={10**12}\n"),
    # The first term, s = n, runs out filling its table of factorials on
    # the way to (2n)!.
    (("count", "--k", 2, "--n", 10**12, "--trace"),
     f"out of memory: incl-excl for k=2 up to n={10**12}\n"),
], ids=["table-incl-excl", "count-phi", "oeis-check", "count-trace"])
def test_out_of_memory_exits_3(tmp_path, args, stderr):
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"0 1\n{10**12} 5\n", encoding="utf-8")
    r = run_capped(*(bfile if a == "BFILE" else a for a in args))
    assert (r.returncode, r.stdout, r.stderr) == (3, "", stderr)


def spawn(*args):
    return subprocess.Popen([sys.executable, "-c", "from carlitz.cli import main; main()", *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)


def test_closed_stdout_exits_141_silently():
    # As in `carlitz table --k 2 --n-max 3000 | head -n 1`: the reader
    # leaves after one row, long before the table is written.
    with spawn("table", "--k", 2, "--n-max", 3000) as proc:
        try:
            assert proc.stdout.readline() == "   0  1\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""
        finally:
            proc.kill()


def test_interrupt_exits_130_with_one_line():
    with spawn("table", "--k", 2, "--n-max", 100000) as proc:
        try:
            assert proc.stdout.readline() == "     0  1\n"
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
            assert (proc.returncode, stderr) == (130, "interrupted\n")
        finally:
            proc.kill()


def test_oeis_check_streams_in_bounded_memory(runner, tmp_path):
    # The values up to a'_2(30000) take ~800 MB as a list; streamed, only
    # the recurrence window and the b-file's two entries are held.
    value = run(runner, "count", "--k", 2, "--n", 30000, "--ordered").output.strip()
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"0 1\n30000 {value}\n", encoding="utf-8")
    r = run_capped("oeis-check", bfile, "--k", 2, "--ordered")
    assert (r.returncode, r.stdout, r.stderr) == (0, "2/2 match\n", "")


#: A cap the ordered runs below meet with room to spare.
SMALL_CAP = 64 << 20


def test_unordered_count_keeps_no_factorial_table(runner):
    # a_2(20000) = 20000! * a'_2(20000); the conversion takes one 20000!,
    # not a cache of every m! up to it (about 325 MB).
    expected = run(runner, "count", "--k", 2, "--n", 20000)
    assert expected.exit_code == 0
    r = run_capped("count", "--k", 2, "--n", 20000, cap=SMALL_CAP)
    assert (r.returncode, r.stdout, r.stderr) == (0, expected.stdout, "")


def test_unordered_oeis_check_converts_only_compared_values(runner, tmp_path):
    # Only n = 0 and n = 15000 are compared, so only they are scaled by n!;
    # the n in between cost one step of the engine and of the running n!.
    # (Scaling every n took 55 s here.)
    value = run(runner, "count", "--k", 2, "--n", 15000).output.strip()
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"0 1\n15000 {value}\n", encoding="utf-8")
    r = run_capped("oeis-check", bfile, "--k", 2, cap=SMALL_CAP, timeout=30)
    assert (r.returncode, r.stdout, r.stderr) == (0, "2/2 match\n", "")


def table_rows(stdout, fmt):
    if fmt == "json":
        return [(row["n"], int(row["value"])) for row in json.loads(stdout)]
    lines = stdout.splitlines()
    if fmt == "csv":
        assert lines[0] == "n,value"
        return [tuple(map(int, line.split(","))) for line in lines[1:]]
    return [tuple(map(int, line.split())) for line in lines]


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 6),
    n_max=st.integers(0, 8),
    method=st.sampled_from(["auto", "brute", "incl-excl", "phi", "recurrence"]),
    ordered=st.booleans(),
    fmt=st.sampled_from(["text", "csv", "json"]),
    limit=st.integers(0, 40),
)
def test_table_grid_exits_cleanly(k, n_max, method, ordered, fmt, limit):
    flag = ["--ordered"] if ordered else []
    r = run(CliRunner(), "table", "--k", k, "--n-max", n_max, "--method", method,
            "--format", fmt, "--limit", limit, *flag)
    assert_clean_exit(r)
    assert r.exit_code != 1
    assert (r.exit_code == 3) == brute_past_limit(k, n_max, ordered, method, limit)
    if r.exit_code == 0:
        assert table_rows(r.stdout, fmt) == [
            (n, phi_value(k, n, ordered)) for n in range(n_max + 1)]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 5), n_max=st.integers(0, 12), limit=st.integers(0, 20))
def test_verify_grid_exits_cleanly(k, n_max, limit):
    r = run(CliRunner(), "verify", "--k", k, "--n-max", n_max, "--limit", limit)
    assert_clean_exit(r)
    assert r.exit_code == (0 if 2 <= k <= 4 else 2), r.output


@st.composite
def bfiles(draw):
    """(bytes, kind) of a b-file with indices in -1..8: empty, comment-only,
    malformed, non-increasing, CRLF, not UTF-8, or a plain LF file."""
    kind = draw(st.sampled_from(
        ["empty", "comments", "malformed", "non-increasing", "crlf", "not-utf8", "lf"]))
    if kind == "empty":
        return b"", kind
    if kind == "comments":
        return b"# A000000\n#\n", kind
    indices = sorted(draw(st.sets(st.integers(-1, 8), min_size=1, max_size=5)))
    lines = [f"{i} {draw(st.integers(-2, 10**6))}" for i in indices]
    if kind == "malformed":
        bad = draw(st.sampled_from(["", "1", "1 2 3", "a b", "1 2x", " # 1 2"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    if kind == "non-increasing":
        lines.append(draw(st.sampled_from(lines)))
    text = "\r\n".join(lines) + "\r\n" if kind == "crlf" else "\n".join(lines) + "\n"
    return text.encode() + (b"\xff\n" if kind == "not-utf8" else b""), kind


@settings(max_examples=200, deadline=None)
@given(
    bfile=bfiles(),
    k=st.integers(1, 6),
    method=st.sampled_from(["auto", "brute", "incl-excl", "phi", "recurrence"]),
    ordered=st.booleans(),
    offset=st.integers(-1, 3),
    limit=st.integers(0, 40),
)
def test_oeis_check_grid_exits_cleanly(bfile, k, method, ordered, offset, limit):
    content, kind = bfile
    flag = ["--ordered"] if ordered else []
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("b.txt").write_bytes(content)
        r = run(runner, "oeis-check", "b.txt", "--k", k, "--method", method,
                "--offset", offset, "--limit", limit, *flag)
    assert_clean_exit(r)
    if kind in ("malformed", "non-increasing", "not-utf8"):
        assert r.exit_code == 2
    if r.exit_code == 3:
        last = int(content.split()[-2]) - offset
        assert brute_past_limit(k, last, ordered, method, limit)


class TestCount:
    def test_basic_values(self, runner):
        assert run(runner, "count", "--k", 3, "--n", 3).output == "174\n"
        assert run(runner, "count", "--k", 1, "--n", 4).output == "24\n"
        r = run(runner, "count", "--k", 2, "--n", 6, "--ordered")
        assert r.output == "3655\n"
        assert r.exit_code == 0

    def test_every_method_agrees(self, runner):
        outs = {
            m: run(runner, "count", "--k", 4, "--n", 3, "--method", m).output
            for m in ("brute", "incl-excl", "phi", "recurrence")
        }
        assert set(outs.values()) == {"1092\n"}

    def test_ordered_incl_excl_divides(self, runner):
        r = run(runner, "count", "--k", 3, "--n", 4, "--ordered",
                "--method", "incl-excl")
        assert r.output == "1721\n"

    def test_trace_k3(self, runner):
        r = run(runner, "count", "--k", 3, "--n", 3, "--trace")
        lines = r.output.splitlines()
        assert lines[0] == "s=3 t=0 u=0  +1680"
        assert lines[-1] == "total 174"
        assert len(lines) == 11

    def test_trace_k4_exact(self, runner):
        # PATTERNS[4] with its u and v rows swapped gives the same sums but a
        # different trace; this pins every k=4 term and its order.
        r = run(runner, "count", "--k", 4, "--n", 2, "--trace")
        assert r.exit_code == 0
        assert r.output == (
            "s=2 t=0 u=0 v=0 w=0  +70\n"
            "s=1 t=1 u=0 v=0 w=0  -210\n"
            "s=0 t=2 u=0 v=0 w=0  +180\n"
            "s=1 t=0 u=1 v=0 w=0  +60\n"
            "s=0 t=1 u=1 v=0 w=0  -120\n"
            "s=0 t=0 u=2 v=0 w=0  +24\n"
            "s=1 t=0 u=0 v=1 w=0  +30\n"
            "s=0 t=1 u=0 v=1 w=0  -60\n"
            "s=0 t=0 u=1 v=1 w=0  +24\n"
            "s=0 t=0 u=0 v=2 w=0  +6\n"
            "s=1 t=0 u=0 v=0 w=1  -10\n"
            "s=0 t=1 u=0 v=0 w=1  +24\n"
            "s=0 t=0 u=1 v=0 w=1  -12\n"
            "s=0 t=0 u=0 v=1 w=1  -6\n"
            "s=0 t=0 u=0 v=0 w=2  +2\n"
            "total 2\n"
        )

    def test_trace_k2_contains_worked_terms(self, runner):
        r = run(runner, "count", "--k", 2, "--n", 3, "--trace")
        assert r.output.splitlines() == [
            "s=3 t=0  +90",
            "s=2 t=1  -90",
            "s=1 t=2  +36",
            "s=0 t=3  -6",
            "total 30",
        ]

    def test_trace_rejects_bad_combinations(self, runner):
        assert run(runner, "count", "--k", 3, "--n", 3, "--trace",
                   "--method", "recurrence").exit_code == 2
        assert run(runner, "count", "--k", 3, "--n", 3, "--trace",
                   "--ordered").exit_code == 2
        assert run(runner, "count", "--k", 1, "--n", 3, "--trace").exit_code == 2

    def test_unsupported_method_exits_2(self, runner):
        assert run(runner, "count", "--k", 5, "--n", 2,
                   "--method", "recurrence").exit_code == 2
        assert run(runner, "count", "--k", 3, "--n", 2,
                   "--method", "phi").exit_code == 2
        assert run(runner, "count", "--k", 5, "--n", 2, "--ordered",
                   "--method", "phi").exit_code == 2
        assert run(runner, "count", "--k", 5, "--n", 2,
                   "--method", "incl-excl").exit_code == 2

    def test_brute_refusal_exits_3(self, runner):
        r = run(runner, "count", "--k", 2, "--n", 13, "--method", "brute")
        assert r.exit_code == 3
        ok = run(runner, "count", "--k", 2, "--n", 13, "--method", "brute",
                 "--limit", 26)
        assert ok.exit_code == 0
        expected = run(runner, "count", "--k", 2, "--n", 13)
        assert ok.output == expected.output

    def test_deep_total_count_keeps_recursion_headroom(self, runner):
        # 800 letters: the total-count memo recurses once per letter, so a
        # memo wrapper that costs frames of its own would overflow here.
        r = run(runner, "count", "--k", 2, "--n", 400, "--method", "brute",
                "--limit", 800)
        assert r.exit_code == 0, r.output
        assert r.stdout == run(runner, "count", "--k", 2, "--n", 400).stdout

    # ROADMAP item 2: the change that makes the total DP iterative drops
    # this marker.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="count_carlitz_total recurses once per letter "
                              "and overflows the stack past ~990 letters")
    def test_deep_total_count_matches_auto(self, runner):
        r = run(runner, "count", "--k", 2, "--n", 600, "--method", "brute",
                "--limit", 100000)
        assert (r.exit_code, r.stdout) == (0, run(runner, "count", "--k", 2, "--n", 600).stdout)

    def test_prints_values_beyond_default_digit_limit(self, runner):
        # a_2(1500) has 8679 digits, past the interpreter's default
        # 4300-digit int/str conversion limit.
        r = run(runner, "count", "--k", 2, "--n", 1500)
        assert r.exit_code == 0, r.output
        assert len(r.output.strip()) == 8679

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int/str digit limit in this interpreter")
    @pytest.mark.parametrize("args,code", [
        (("count", "--k", 2, "--n", 1500), 0),
        (("count", "--k", 3, "--n", 2, "--method", "phi"), 2),
        (("count", "--k", 3, "--n", 9, "--method", "brute"), 3),
    ], ids=["ok", "usage", "refused"])
    def test_restores_the_int_str_digit_limit(self, runner, args, code):
        # The command lifts the interpreter-wide limit only while it runs,
        # so an in-process caller keeps its own afterwards.  A known limit
        # is set first, so a command run earlier cannot have changed it.
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            r = run(runner, *args)
            assert r.exit_code == code, r.output
            if code == 0:
                assert len(r.output.strip()) == 8679
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    def test_auto_resolution_for_large_k(self, runner):
        # No formula or recurrence at k=5: auto falls back to brute.
        assert run(runner, "count", "--k", 5, "--n", 2).output == "2\n"


class TestTable:
    def test_text_format(self, runner):
        r = run(runner, "table", "--k", 2, "--n-max", 6)
        assert r.output == (
            "0  1\n1  0\n2  2\n3  30\n4  864\n5  39480\n6  2631600\n"
        )

    def test_csv_format(self, runner):
        r = run(runner, "table", "--k", 3, "--n-max", 6, "--ordered",
                "--format", "csv")
        assert r.output == (
            "n,value\n0,1\n1,0\n2,1\n3,29\n4,1721\n5,163386\n6,22831355\n"
        )

    def test_json_format(self, runner):
        r = run(runner, "table", "--k", 4, "--n-max", 2, "--ordered",
                "--format", "json")
        payload = json.loads(r.output)
        assert payload == [
            {"n": 0, "value": "1"},
            {"n": 1, "value": "0"},
            {"n": 2, "value": "1"},
        ]
        # Values are decimal strings, never JSON numbers.
        assert all(isinstance(row["value"], str) for row in payload)

    def test_output_is_deterministic(self, runner):
        first = run(runner, "table", "--k", 3, "--n-max", 8, "--format", "json")
        second = run(runner, "table", "--k", 3, "--n-max", 8, "--format", "json")
        assert first.output == second.output

    def test_methods_give_identical_tables(self, runner):
        base = run(runner, "table", "--k", 4, "--n-max", 6).output
        for m in ("incl-excl", "phi", "recurrence"):
            assert run(runner, "table", "--k", 4, "--n-max", 6,
                       "--method", m).output == base

    @pytest.mark.parametrize("k,n_max", [(2, 60), (3, 40), (4, 25)])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_incl_excl_range_matches_recurrence(self, runner, k, n_max, ordered):
        flag = ["--ordered"] if ordered else []
        incl = run(runner, "table", "--k", k, "--n-max", n_max,
                   "--method", "incl-excl", *flag)
        rec = run(runner, "table", "--k", k, "--n-max", n_max,
                  "--method", "recurrence", *flag)
        assert incl.exit_code == rec.exit_code == 0
        assert incl.output == rec.output

    def test_brute_refusal_exits_3(self, runner):
        assert run(runner, "table", "--k", 5, "--n-max", 5,
                   "--method", "brute").exit_code == 3

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unordered_stream_keeps_no_factorial_table(self, runner, k):
        # The ordered engine's values are scaled by a running n!, not by
        # a table of every m! up to n_max (test_unordered_count_keeps_no_
        # factorial_table guards the memory); the values stay the sum's.
        r = run(runner, "table", "--k", k, "--n-max", 200)
        assert r.exit_code == 0
        assert r.output.splitlines()[-1] == f"200  {formulas.inclusion_exclusion_range(k, 200)[-1]}"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_refusal_prints_nothing_on_stdout(self, runner, fmt):
        # Rows stream as they are computed, but a refused range writes no
        # header or opening bracket first.
        r = run(runner, "table", "--k", 3, "--n-max", 9, "--method", "brute", "--format", fmt)
        assert (r.exit_code, r.stdout) == (3, "")
        assert r.stderr == "refused: total counting refused: total length 27 exceeds limit 24\n"

    @pytest.mark.parametrize("n_max", [0, 1, 12])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_streamed_bytes_match_whole_table_formatting(self, runner, n_max, ordered):
        values = (list(recurrences.prime_stream(3, n_max)) if ordered
                  else formulas.inclusion_exclusion_range(3, n_max))
        flag = ["--ordered"] if ordered else []

        def table(fmt):
            r = run(runner, "table", "--k", 3, "--n-max", n_max, "--format", fmt, *flag)
            assert r.exit_code == 0
            return r.stdout

        payload = [{"n": n, "value": str(v)} for n, v in enumerate(values)]
        assert table("json") == json.dumps(payload, indent=2) + "\n"
        assert table("csv") == "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))
        width = len(str(n_max))
        assert table("text") == "".join(f"{n:>{width}}  {v}\n" for n, v in enumerate(values))

    def test_oversized_brute_refused_before_any_n(self, runner, monkeypatch, tmp_path):
        # table and oeis-check both refuse a brute range whose last n is
        # past --limit before enumerating any smaller n.
        computed = []

        def ordered_stub(mv):
            computed.append(mv.symbols)
            return recurrences.prime(4, mv.symbols)

        monkeypatch.setattr(words, "count_ordered_carlitz", ordered_stub)
        bfile = tmp_path / "b.txt"
        bfile.write_text("".join(f"{n} {recurrences.prime(4, n)}\n" for n in range(9)),
                         encoding="utf-8")
        for args in (("table", "--k", 4, "--n-max", 8),
                     ("oeis-check", bfile, "--k", 4)):
            r = run(runner, *args, "--method", "brute", "--ordered")
            assert r.exit_code == 3
            assert r.stdout == ""
            assert r.stderr == "refused: ordered counting refused: total length 28 exceeds limit 24\n"
        assert computed == []


class TestVerify:
    def test_k3_passes(self, runner):
        r = run(runner, "verify", "--k", 3, "--n-max", 12)
        assert r.exit_code == 0
        assert "all" in r.output and "agree" in r.output

    def test_k4_passes_with_phi(self, runner):
        r = run(runner, "verify", "--k", 4, "--n-max", 8)
        assert r.exit_code == 0
        assert "phi" in r.output

    @pytest.mark.parametrize("k,columns", [
        (2, [("incl-excl", 6), ("recurrence*n!", 6), ("brute", 6),
             ("brute-ordered*n!", 6)]),
        (3, [("incl-excl", 6), ("recurrence*n!", 6), ("four-term*n!", 6),
             ("brute", 5), ("brute-ordered*n!", 5)]),
        (4, [("incl-excl", 6), ("recurrence*n!", 6), ("phi", 6),
             ("brute", 3), ("brute-ordered*n!", 3)]),
    ])
    def test_exact_listing(self, runner, k, columns):
        r = run(runner, "verify", "--k", k, "--n-max", 6)
        assert r.exit_code == 0
        assert r.output == "".join(
            f"  {name}: n = 0..{last}\n" for name, last in columns
        ) + f"verify k={k}: all {len(columns)} methods agree for n = 0..6\n"

    def test_limit_bounds_brute_columns_and_oracles(self, runner, monkeypatch):
        # At k=2 the brute columns reach n = 13 (26 letters), past the
        # default --limit of 24.  The ordered column is served by a stub
        # and the total DP column runs for real.
        def ordered_stub(mv):
            return recurrences.prime(2, mv.symbols)

        monkeypatch.setattr(words, "count_ordered_carlitz", ordered_stub)
        r = run(runner, "verify", "--k", 2, "--n-max", 13, "--limit", 26)
        assert r.exit_code == 0, r.output
        assert "  brute: n = 0..13\n" in r.output
        assert "  brute-ordered*n!: n = 0..13\n" in r.output
        assert r.output.endswith("verify k=2: all 4 methods agree for n = 0..13\n")

    def test_k_out_of_range_exits_2(self, runner):
        assert run(runner, "verify", "--k", 5).exit_code == 2
        assert run(runner, "verify", "--k", 1).exit_code == 2

    def test_injected_fault_exits_1(self, runner, monkeypatch):
        # verify's incl-excl column comes from the range table.
        real = formulas.inclusion_exclusion_range

        def wrong(k, n_max):
            values = real(k, n_max)
            values[7] += 720
            return values

        monkeypatch.setattr(formulas, "inclusion_exclusion_range", wrong)
        r = run(runner, "verify", "--k", 3, "--n-max", 10)
        assert r.exit_code == 1
        assert "MISMATCH k=3 n=7" in r.output

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_count_reaches_the_point_sum(self, runner, monkeypatch, k):
        # The k=2 case is the seam perfbench/selftest.py patches.
        name = f"a{k}_inclusion_exclusion"
        real = getattr(formulas, name)
        monkeypatch.setattr(formulas, name, lambda n: real(n) + (720 if n == 7 else 0))
        r = run(runner, "count", "--k", k, "--n", 7, "--method", "incl-excl")
        assert r.exit_code == 0
        assert r.output == f"{real(7) + 720}\n"


class TestOeisCheck:
    @pytest.mark.parametrize(
        "name,k,ordered",
        [
            ("b114938.txt", 2, False),
            ("b278990.txt", 2, True),
            ("b193638.txt", 3, False),
            ("b190826.txt", 3, True),
        ],
    )
    def test_fixture_files_pass(self, runner, name, k, ordered):
        args = ["oeis-check", DATA / name, "--k", k]
        if ordered:
            args.append("--ordered")
        r = run(runner, *args)
        assert r.exit_code == 0
        assert "7/7 match" in r.output

    def test_mismatch_exits_1_with_report(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 0\n2 7\n3 30\n", encoding="utf-8")
        r = run(runner, "oeis-check", bad, "--k", 2)
        assert r.exit_code == 1
        assert "3/4 match" in r.output
        assert "first mismatch at index 2: file has 7, computed 2" in r.output

    def test_first_of_several_mismatches_is_reported(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 0\n3 7\n4 31\n", encoding="utf-8")
        r = run(runner, "oeis-check", bad, "--k", 2, "--offset", 1)
        assert (r.exit_code, r.stdout) == (
            1, "2/4 match; first mismatch at index 3: file has 7, computed 2\n")

    def test_value_beyond_default_digit_limit_passes(self, runner, tmp_path):
        value = run(runner, "count", "--k", 2, "--n", 1500).output.strip()
        big = tmp_path / "big.txt"
        big.write_text(f"0 1\n1500 {value}\n", encoding="utf-8")
        r = run(runner, "oeis-check", big, "--k", 2)
        assert r.exit_code == 0, r.output
        assert r.output == "2/2 match\n"

    def test_malformed_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot numbers\n", encoding="utf-8")
        r = run(runner, "oeis-check", bad, "--k", 2)
        assert r.exit_code == 2

    def test_non_utf8_file_exits_2_without_traceback(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00\x01")
        r = run(runner, "oeis-check", bad, "--k", 2)
        assert r.exit_code == 2
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.stdout == ""
        assert r.stderr == "malformed b-file: byte 0: not UTF-8 text\n"

    def test_offset_shifts_comparison(self, runner, tmp_path):
        shifted = tmp_path / "shifted.txt"
        shifted.write_text("5 1\n6 0\n7 2\n8 30\n", encoding="utf-8")
        assert run(runner, "oeis-check", shifted, "--k", 2,
                   "--offset", 5).exit_code == 0
        # Without the offset the values sit at the wrong indices.
        assert run(runner, "oeis-check", shifted, "--k", 2).exit_code == 1

    def test_negative_computed_index_exits_2(self, runner, tmp_path):
        f = tmp_path / "b.txt"
        f.write_text("0 1\n1 0\n", encoding="utf-8")
        assert run(runner, "oeis-check", f, "--k", 2, "--offset", 3).exit_code == 2

    def test_missing_file_exits_2(self, runner, tmp_path):
        assert run(runner, "oeis-check", tmp_path / "absent.txt",
                   "--k", 2).exit_code == 2


class TestExactDecimal:
    """`table` and `oeis-check` compute the recurrence route in Decimal
    under EXACT; every output must equal what int arithmetic prints."""

    @staticmethod
    def outcome(r):
        return r.exit_code, r.stdout, r.stderr

    def int_reference(self, runner, monkeypatch, *args):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_unit", lambda route: 1)
            return self.outcome(run(runner, *args))

    @pytest.mark.parametrize("method", ("auto",) + METHODS)
    @pytest.mark.parametrize("k", range(1, 6))
    def test_table_matches_int_reference(self, runner, monkeypatch, k, method):
        for ordered in (False, True):
            for fmt in ("text", "csv", "json"):
                args = ["table", "--k", k, "--n-max", 40, "--method", method, "--format", fmt]
                args += ["--ordered"] if ordered else []
                assert self.outcome(run(runner, *args)) == self.int_reference(runner, monkeypatch, *args)

    @pytest.mark.parametrize("method", ("auto",) + METHODS)
    @pytest.mark.parametrize("name", ["b114938.txt", "b278990.txt", "b193638.txt", "b190826.txt"])
    def test_oeis_check_matches_int_reference(self, runner, monkeypatch, name, method):
        for k in (2, 3, 4):
            for ordered in (False, True):
                for offset in (0, 1):
                    args = ["oeis-check", DATA / name, "--k", k, "--method", method, "--offset", offset]
                    args += ["--ordered"] if ordered else []
                    assert self.outcome(run(runner, *args)) == self.int_reference(runner, monkeypatch, *args)

    def test_values_past_4300_digits_match_int_reference(self, runner, monkeypatch, tmp_path):
        with decimal.localcontext(EXACT):  # no int of 4300 digits or more prints here
            values = recurrences.prime_stream(3, 800, Decimal(1))
            lines = [f"{n} {v + (n == 777)}\n" for n, v in enumerate(values)]
        bfile = tmp_path / "b.txt"
        bfile.write_text("".join(lines))
        for args in (("table", "--k", 2, "--n-max", 1500),
                     ("table", "--k", 4, "--n-max", 600, "--ordered", "--format", "csv"),
                     ("oeis-check", bfile, "--k", 3, "--ordered")):
            assert self.outcome(run(runner, *args)) == self.int_reference(runner, monkeypatch, *args)

    @pytest.mark.parametrize("ordered, values, report", [
        (False, "1 -0 007 30", "3/4 match; first mismatch at index 2: file has 7, computed 2\n"),
        (False, "1 0 -0 30", "3/4 match; first mismatch at index 2: file has 0, computed 2\n"),
        (False, "1 -00 2 -030", "3/4 match; first mismatch at index 3: file has -30, computed 30\n"),
        (True, "001 -0 1 -5", "3/4 match; first mismatch at index 3: file has -5, computed 5\n"),
    ])
    def test_mismatch_line_prints_file_values_as_integers(self, runner, monkeypatch, tmp_path,
                                                          ordered, values, report):
        # Decimal("-0") would print "-0" and int("-0") prints "0".
        bfile = tmp_path / "b.txt"
        bfile.write_text("".join(f"{n} {v}\n" for n, v in enumerate(values.split())))
        args = ["oeis-check", bfile, "--k", 2] + (["--ordered"] if ordered else [])
        assert self.outcome(run(runner, *args)) == (1, report, "")
        assert self.int_reference(runner, monkeypatch, *args) == (1, report, "")

    def test_ambient_context_is_neither_used_nor_changed(self, runner, monkeypatch):
        with decimal.localcontext() as ambient:
            ambient.prec = 5
            before = repr(ambient)
            for args in (("table", "--k", 2, "--n-max", 60),
                         ("table", "--k", 3, "--n-max", 60, "--ordered", "--format", "json"),
                         ("oeis-check", DATA / "b193638.txt", "--k", 3)):
                r = run(runner, *args)
                assert repr(decimal.getcontext()) == before
                assert self.outcome(r) == self.int_reference(runner, monkeypatch, *args)
            assert decimal.getcontext() is ambient

    def test_importing_the_cli_does_not_import_decimal(self):
        # It would add a few ms to the start of every command.
        code = "import sys, carlitz.cli; assert 'decimal' not in sys.modules, sorted(sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, check=True, timeout=60)

    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_values_are_plain_decimal_integers(self, k, ordered):
        # No signed zero (it would print "-0") and no exponent (it would
        # print as 1E+3).
        route = resolve(k, ordered, "auto")
        with cli._exact_decimal():
            values = list(cli._values(route, k, 300, ordered, 24, cli._unit(route)))
        assert values == list(cli._values(route, k, 300, ordered, 24))
        for v in values:
            assert isinstance(v, Decimal)
            assert (v.as_tuple().sign, v.as_tuple().exponent) == (0, 0)
