"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A short `point-queries` run of the program as it is: the output must
   read correct, and every failure must be one the workload predicts
   (a known defect), attributed to the digit or the recursion limit.
2. The same run with `formulas.a2_inclusion_exclusion` patched to return
   value + 1 inside the throwaway worker process: the run must report
   correct=false, name each affected op as a wrong output (the ordered
   ones fail the program's own divisibility check instead), and count
   every one of them in `failed` and so in failed_frac.
3. The benchmark started in a directory that holds only BENCHMARK.json
   and the benchmark's files must exit non-zero without a result line.

Exits 0 when all three hold.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import tempfile

import run
import worker

SEED = 7


def _add_one():
    from carlitz import formulas

    original = formulas.a2_inclusion_exclusion
    formulas.a2_inclusion_exclusion = lambda n: original(n) + 1


def _measure(launcher=None) -> tuple[dict, str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run("point-queries", SEED, 1, False, launcher=launcher)
    return result, printed.getvalue()


def _bare_directory_fails() -> bool:
    scratch = run.ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "point-queries",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    if sys.argv[1:] == ["--faulty-worker"]:
        worker.serve(sys.stdin, install=_add_one)
        return 0
    problems = []
    clean, clean_report = _measure()
    if not clean["correct"] or "WRONG OUTPUT" in clean_report:
        problems.append("the unpatched program was reported wrong")
    if "unpredicted failure" in clean_report:
        problems.append("a failure of the unpatched program is not a known defect")
    faulty, faulty_report = _measure([sys.executable, __file__, "--faulty-worker"])
    lines = faulty_report.splitlines()
    wrong = [line for line in lines if "WRONG OUTPUT" in line]
    new_failures = [line for line in lines if "unpredicted failure" in line]
    if faulty["correct"]:
        problems.append("the patched program was reported correct")
    # The patched sum feeds `count --method incl-excl` and the total line
    # of `count --trace`, for k = 2 only.
    if not wrong or any(
        "--k 2 " not in line or ("incl-excl" not in line and "--trace" not in line)
        for line in wrong
    ):
        problems.append("the wrong ops named are not the patched ones")
    if faulty["failed"] != clean["failed"] + len(new_failures) or len(new_failures) < len(wrong):
        problems.append("wrong outputs are not counted as failed")
    if not _bare_directory_fails():
        problems.append("a checkout without the program did not fail")
    print(clean_report + faulty_report)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print(f"selftest passed: {len(wrong)} wrong outputs caught, "
              f"failed {clean['failed']} -> {faulty['failed']} of {faulty['attempted']}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
