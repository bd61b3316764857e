"""Seeded workloads: the CLI argument lists, and what each op must print.

A workload is a sequence of passes.  Every pass of a workload has the same
make-up (how many ops of each kind, and which of them hit a known defect);
the seed and the pass index pick the sizes within fixed strata and the
order.  So runs with different seeds do comparable work, while no two
passes repeat the same queries.  The program sees only the argument lists
and the b-files written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import EXTENT, Reference, trace_lines

FORMATS = ("text", "csv", "json")

#: Largest N per k for `verify`; each pass verifies 1/3, 2/3 and 3/3 of
#: it.  Below the acceptance spans on purpose: one op at those spans
#: runs for minutes, and the n^4 cost keeps inclusion-exclusion dominant.
VERIFY_TOPS = {2: 250, 3: 100, 4: 36}
VERIFY_STEPS = 3

#: `verify` runs brute force while k*n stays within this (its default).
VERIFY_BRUTE_LIMIT = 15

#: Known defects at the time the benchmark was written.
DIGIT = "digit_limit"  # a printed or parsed value passes 4300 digits
RECURSION = "recursion_limit"  # the total DP recurses once per letter


@dataclass
class BFile:
    path: Path
    k: int
    ordered: bool
    offset: int
    entries: list[tuple[int, str]]  # (index, value) as written
    bad: int | None = None  # position of a planted wrong entry


@dataclass
class Op:
    args: list[str]
    kind: str  # count | table | verify | oeis-check
    k: int
    n: int  # n for count, n-max for table and verify
    ordered: bool = False
    fmt: str = "text"
    trace: bool = False
    refuse: bool = False
    bfile: BFile | None = None
    defect: str | None = None  # failure expected at the benchmark's commit
    key: tuple = field(init=False)

    def __post_init__(self):
        self.key = tuple(self.args)

    def expected(self, ref: Reference) -> tuple[int, str, int, int]:
        """(exit code, stdout, n-values delivered or checked, their digits)."""
        if self.kind == "count":
            if self.refuse:
                return 3, "", 0, 0
            if self.trace:
                lines = trace_lines(self.k, self.n)
                if lines[-1] != f"total {ref.value(self.k, self.n)}":
                    raise ArithmeticError(f"reference terms of a_{self.k}({self.n}) disagree")
                return 0, "\n".join(lines) + "\n", 1, len(lines[-1]) - len("total ")
            value = ref.value(self.k, self.n, self.ordered)
            return 0, value + "\n", 1, len(value)
        if self.kind == "table":
            values = [ref.value(self.k, m, self.ordered) for m in range(self.n + 1)]
            return 0, _table_text(values, self.fmt), len(values), sum(map(len, values))
        if self.kind == "verify":
            digits = sum(len(ref.value(self.k, m)) for m in range(self.n + 1))
            return 0, _verify_text(self.k, self.n), self.n + 1, digits
        return _oeis_expected(self.bfile, ref)


def _table_text(values: list[str], fmt: str) -> str:
    if fmt == "csv":
        return "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))
    if fmt == "json":
        payload = [{"n": n, "value": v} for n, v in enumerate(values)]
        return json.dumps(payload, indent=2) + "\n"
    width = len(str(len(values) - 1))
    return "".join(f"{n:>{width}}  {v}\n" for n, v in enumerate(values))


def _verify_text(k: int, n_max: int) -> str:
    brute = min(n_max, VERIFY_BRUTE_LIMIT // k)
    columns = [("incl-excl", n_max), ("recurrence*n!", n_max)]
    if k == 3:
        columns.append(("four-term*n!", n_max))
    if k == 4:
        columns.append(("phi", n_max))
    columns += [("brute", brute), ("brute-ordered*n!", brute)]
    lines = [f"  {name}: n = 0..{last}" for name, last in columns]
    lines.append(f"verify k={k}: all {len(columns)} methods agree for n = 0..{n_max}")
    return "\n".join(lines) + "\n"


def _oeis_expected(bfile: BFile, ref: Reference) -> tuple[int, str, int, int]:
    total = len(bfile.entries)
    digits = sum(len(v) for _, v in bfile.entries)
    if bfile.bad is None:
        return 0, f"{total}/{total} match\n", total, digits
    index, value = bfile.entries[bfile.bad]
    computed = ref.value(bfile.k, index - bfile.offset, bfile.ordered)
    text = (
        f"{total - 1}/{total} match; first mismatch at index {index}: "
        f"file has {value}, computed {computed}\n"
    )
    return 1, text, total, digits


def printable_top(ref: Reference, k: int, ordered: bool) -> int:
    """Largest n whose value the program can print at its commit."""
    return min(ref.first_over_limit(k, ordered) - 1, EXTENT[k])


def spread(rng: random.Random, lo: int, hi: int, m: int) -> list[int]:
    """m draws from [lo, hi], one from each of m equal strata."""
    width = (hi - lo + 1) / m
    return [lo + int((j + rng.random()) * width) for j in range(m)]


def count_op(k, n, *, ordered=False, method=None, limit=None, trace=False, refuse=False, defect=None):
    args = ["count", "--k", str(k), "--n", str(n)]
    if ordered:
        args.append("--ordered")
    if method:
        args += ["--method", method]
    if limit is not None:
        args += ["--limit", str(limit)]
    if trace:
        args.append("--trace")
    return Op(args, "count", k, n, ordered=ordered, trace=trace, refuse=refuse, defect=defect)


def table_op(k, n_max, *, ordered=False, fmt="text", method=None, defect=None):
    args = ["table", "--k", str(k), "--n-max", str(n_max)]
    if ordered:
        args.append("--ordered")
    if method:
        args += ["--method", method]
    if fmt != "text":
        args += ["--format", fmt]
    return Op(args, "table", k, n_max, ordered=ordered, fmt=fmt, defect=defect)


def oeis_op(bfile: BFile, defect=None):
    args = ["oeis-check", str(bfile.path), "--k", str(bfile.k)]
    if bfile.ordered:
        args.append("--ordered")
    if bfile.offset:
        args += ["--offset", str(bfile.offset)]
    return Op(args, "oeis-check", bfile.k, 0, ordered=bfile.ordered, bfile=bfile, defect=defect)


def verify_sweep(rng: random.Random, p: int, ref: Reference, files) -> list[Op]:
    ops = []
    for k, top in VERIFY_TOPS.items():
        for j in range(1, VERIFY_STEPS + 1):
            n = top * j // VERIFY_STEPS - rng.randint(0, 2)
            ops.append(Op(["verify", "--k", str(k), "--n-max", str(n)], "verify", k, n))
    return ops


def table_deep(rng: random.Random, p: int, ref: Reference, files) -> list[Op]:
    ops = []
    for k in (2, 3, 4):
        for ordered in (False, True):
            top = printable_top(ref, k, ordered)
            n = top - rng.randint(0, top // 10)
            method = rng.choice((None, "recurrence"))
            ops.append(table_op(k, n, ordered=ordered, fmt=rng.choice(FORMATS), method=method))
    ops.append(table_op(4, 110 - rng.randint(0, 10), fmt=rng.choice(FORMATS), method="phi"))
    ops += [oeis_op(f) for f in files["checked"]]
    # One known-defect op per pass, alternating between the two paths
    # that convert an over-long value: table output and b-file parsing.
    if p % 2 == 0:
        k = (2, 3, 4)[(p // 2) % 3]
        n = min(ref.first_over_limit(k) + rng.randint(10, 60), EXTENT[k])
        ops.append(table_op(k, n, fmt=rng.choice(FORMATS), defect=DIGIT))
    else:
        ops.append(oeis_op(files["over_limit"], defect=DIGIT))
    return ops


def point_queries(rng: random.Random, p: int, ref: Reference, files) -> list[Op]:
    ops = []
    # Recurrence route, recomputed from n = 0 for every query.
    for k in (2, 3, 4):
        for ordered in (False, True):
            for n in spread(rng, 0, printable_top(ref, k, ordered), 7):
                method = rng.choice((None, "recurrence"))
                ops.append(count_op(k, n, ordered=ordered, method=method))
    # Inclusion-exclusion (k = 1 is its auto route), then phi, then --trace.
    for k, hi in ((1, 300), (2, 200), (3, 50), (4, 20)):
        for j, n in enumerate(spread(rng, 0, hi, 4)):
            if k == 1:
                ops.append(count_op(k, n))
            else:
                ops.append(count_op(k, n, ordered=j % 2 == 1, method="incl-excl"))
    ops += [count_op(4, n, method="phi") for n in spread(rng, 10, 50, 4)]
    for k, hi, m in ((2, 40, 3), (3, 16, 3), (4, 10, 2)):
        ops += [count_op(k, n, trace=True) for n in spread(rng, 0, hi, m)]
    # Word oracles within --limit: ordered backtracking, then the total DP.
    for k, n in ((2, 7), (3, 5), (4, 4)):
        ops.append(count_op(k, n, ordered=True, method="brute"))
    for k, hi in ((2, 6), (3, 4), (4, 3), (5, 3), (6, 2)):
        ops.append(count_op(k, rng.randint(0, hi), ordered=True, method="brute"))
    for k in (2, 3, 5, 6):
        n = rng.randint(0, 24 // k)
        ops.append(count_op(k, n, method="brute" if k <= 4 else None))
    # The largest DP sets the pass's peak memory, so its size is fixed.
    ops += [count_op(2, n, method="brute", limit=300) for n in spread(rng, 40, 100, 2) + [120]]
    ops.append(count_op(3, rng.randint(10, 30), method="brute", limit=100))
    # Refusals (exit 3) are correct outcomes.
    ops.append(count_op(3, rng.randint(9, 12), method="brute", refuse=True))
    ops.append(count_op(2, rng.randint(13, 20), ordered=True, method="brute", refuse=True))
    ops.append(count_op(rng.randint(7, 9), rng.randint(4, 6), refuse=True))
    # One known-defect op per pass, alternating the two defects.
    if p % 2 == 0:
        n = rng.randint(600, 700)
        ops.append(count_op(2, n, method="brute", limit=100000, defect=RECURSION))
    else:
        k = (2, 3, 4)[(p // 2) % 3]
        n = min(ref.first_over_limit(k) + rng.randint(0, 100), EXTENT[k])
        ops.append(count_op(k, n, defect=DIGIT))
    return ops


BUILDERS = {
    "verify-sweep": verify_sweep,
    "table-deep": table_deep,
    "point-queries": point_queries,
}


def _write_bfile(rng, path, ref, k, ordered, n_max, offset=0, bad=None) -> BFile:
    entries = [(n + offset, ref.value(k, n, ordered)) for n in range(n_max + 1)]
    if bad is not None:
        index, value = entries[bad]
        entries[bad] = (index, str(int(value) + 1))
    sep = rng.choice((" ", "  ", "\t"))
    kind = "ordered Carlitz words" if ordered else "Carlitz words"
    lines = [f"# {kind} over {k} copies each of n symbols, n = 0..{n_max}"]
    middle = rng.randint(1, n_max)
    for pos, (index, value) in enumerate(entries):
        if pos == middle:
            lines.append("# continued")
        lines.append(f"{index}{sep}{value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return BFile(path, k, ordered, offset, entries, bad)


def write_bfiles(rng: random.Random, ref: Reference, directory: Path) -> dict:
    """The b-files `table-deep` checks, as long as real OEIS b-files run."""
    checked = []
    for j, (k, ordered, offset) in enumerate(
        ((2, False, 0), (2, True, 0), (3, False, 0), (3, True, 1), (4, False, 0))
    ):
        top = printable_top(ref, k, ordered)
        n_max = top - rng.randint(0, top // 10)
        checked.append(_write_bfile(rng, directory / f"b{j}.txt", ref, k, ordered, n_max, offset))
    top = printable_top(ref, 4, True)
    n_max = top - rng.randint(0, top // 10)
    bad = rng.randint(n_max // 2, n_max)
    checked.append(_write_bfile(rng, directory / "bad.txt", ref, 4, True, n_max, bad=bad))
    n_max = min(ref.first_over_limit(2) + rng.randint(10, 80), EXTENT[2])
    over = _write_bfile(rng, directory / "over.txt", ref, 2, False, n_max)
    return {"checked": checked, "over_limit": over}


class Plan:
    """The passes of one workload for one seed."""

    def __init__(self, name: str, seed: int, ref: Reference, directory: Path):
        self.name, self.seed, self.ref = name, seed, ref
        self.files = None
        if name == "table-deep":
            self.files = write_bfiles(random.Random(f"{name}/{seed}/files"), ref, directory)

    def ops(self, p: int) -> list[Op]:
        """Pass p.  Peak memory is measured over pass 0, and the heap's
        fragmentation depends on the sizes and order of the ops before and
        after the largest one; so pass 0 is the same for every seed (up to
        the seed's b-files) and keeps the builder's order."""
        rng = random.Random(f"{self.name}/{self.seed if p else 'first'}/{p}")
        ops = BUILDERS[self.name](rng, p, self.ref, self.files)
        if p:
            rng.shuffle(ops)
        return ops
