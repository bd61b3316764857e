"""Benchmark of the carlitz command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from `src/`
there and nowhere else.  One run:

1. builds (or loads from `.bench_build/perfbench/`) reference values that
   do not come from the program (see reference.py);
2. times SETUP_SAMPLES fresh interpreters until `carlitz.cli` is imported
   and reports their median as `setup_s`;
3. starts one fresh worker process (worker.py), a closed loop with one
   client and no threads, which runs whole passes of the workload's CLI
   ops until `--seconds` have gone by;
4. checks the exit code and the full output of every op against the
   reference, classifies each failure by what happened, and prints a
   readable report followed by one JSON line with the metrics that
   BENCHMARK.json lists.

With `--trace 1` it instead runs TRACE_PASSES passes three times, each
in a fresh worker: untraced, with layer spans, and with exact-helper
counters; it reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibrate
import reference
from workloads import BUILDERS, Plan

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: Interpreter start-ups timed per run; their median is setup_s.
SETUP_SAMPLES = 21
SETUP_CALIBRATION_S = 0.03
MAX_PASSES = 200
TRACE_PASSES = 2
#: op_tail_ms is the highest percentile with TAIL_SAMPLES ops beyond it,
#: but never below TAIL_FLOOR: a run of fewer ops would otherwise report a
#: percentile that falls as the host slows and fewer passes fit in.
TAIL_SAMPLES = 10
TAIL_FLOOR = 90.0
WORKER_TIMEOUT_S = 150

#: Outcomes that count as completed work.  An expected refusal (exit 3)
#: and a b-file mismatch the program reports (exit 1) are correct.
COMPLETED = ("ok", "refused", "mismatch-reported")
_OUTCOME = {0: "ok", 3: "refused", 1: "mismatch-reported"}


def classify(record: dict, expected: tuple) -> str:
    """What happened to one op, judged by more than its exit code."""
    exc = record["exc"]
    if exc == "RecursionError":
        return "recursion_limit"
    if exc == "ValueError" and "integer string conversion" in record["msg"]:
        return "digit_limit"
    if exc is not None:
        return f"error:{exc}"
    code, sha = expected[0], expected[1]
    if record["code"] == code and record["sha"] == sha:
        return _OUTCOME[code]
    return "wrong"


class Checker:
    """Expected exit code, output digest and work of each distinct op."""

    def __init__(self, ref: reference.Reference):
        self.ref = ref
        self._cache: dict[tuple, tuple] = {}

    def expected(self, op) -> tuple:
        if op.key not in self._cache:
            code, text, values, digits = op.expected(self.ref)
            sha = hashlib.sha256(text.encode()).hexdigest()
            self._cache[op.key] = (code, sha, values, digits)
        return self._cache[op.key]


def setup_seconds() -> float:
    """Median time from a fresh interpreter to an imported carlitz.cli.

    Each sample is scaled to the nominal host by calibration slices taken
    right after it, as the op times are.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import carlitz.cli; print('ready', flush=True)"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode:
            raise RuntimeError("importing carlitz.cli failed")
        slices = calibrate.slices(SETUP_CALIBRATION_S)
        samples.append(elapsed / (statistics.median(slices) / calibrate.NOMINAL_SLICE_S))
    return statistics.median(samples)


def run_worker(passes, mode, seconds, min_passes, launcher=None):
    """One fresh worker process; returns its op records and summary."""
    header = {"root": str(ROOT), "mode": mode, "seconds": seconds, "min_passes": min_passes}
    payload = "".join(json.dumps(x) + "\n" for x in [header] + [[op.args for op in ops] for ops in passes])
    argv = launcher or [sys.executable, str(HERE / "worker.py")]
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(payload, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    lines = out.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    return records, json.loads(lines[-1])["summary"]


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1) of values.

    A mean of all order statistics weighted by Beta((n+1)q, (n+1)(1-q)).
    Op times cluster by kind of op, and a single order statistic jumps
    between clusters with the noise of one op; this weighting does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    grid = 64  # midpoints per order statistic when integrating the density
    weights = []
    for i in range(n):
        total = 0.0
        for j in range(grid):
            x = (i * grid + j + 0.5) / (n * grid)
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Outcomes:
    """Op records of one worker, checked, classified and scaled.

    Each op time is also scaled to a nominal host: divided by its pass's
    slowness, the median calibration slice time of the pass over
    calibrate.NOMINAL_SLICE_S.  Pairing each pass with slices taken
    between its own ops follows the shared machine's speed, which drifts
    by a third within minutes: unscaled, the rates of ten runs spread by
    up to 0.29 (design.json, steadiness).  The first pass runs no slices;
    it takes the median over all of them.
    """

    def __init__(self, records: list, passes: list, checker: Checker, summary: dict):
        self.records = records
        self.ops = [passes[r["p"]][r["i"]] for r in records]
        self.expected = [checker.expected(op) for op in self.ops]
        self.classes = [classify(r, e) for r, e in zip(records, self.expected)]
        self.passes = max(r["p"] for r in records) + 1
        self.op_time = sum(r["t"] for r in records)
        self.tally = Counter(self.classes)
        self.completed = sum(self.tally[c] for c in COMPLETED)
        self.failed = len(records) - self.completed
        slices = [[] for _ in range(self.passes)]
        for r in records:
            slices[r["p"]] += r["cal"]
        overall = statistics.median(summary["cal"] + [s for ss in slices for s in ss])
        self.slowness = [
            statistics.median(pass_slices or [overall]) / calibrate.NOMINAL_SLICE_S
            for pass_slices in slices
        ]
        self.scaled = [r["t"] / self.slowness[r["p"]] for r in records]

    def wrong_ops(self) -> list[str]:
        return [" ".join(op.args) for op, c in zip(self.ops, self.classes) if c == "wrong"]

    def unpredicted_failures(self) -> list[str]:
        return [
            f"{c}: {' '.join(op.args)}"
            for op, c in zip(self.ops, self.classes)
            if c not in COMPLETED and c != op.defect
        ]

    def latency_ms(self, percentile: float) -> float:
        """Scaled latency percentile; failed ops rank after completed ones.

        A failed op stands in at the slowest scaled time among the ops its
        pass completed, so it ranks after every op of its pass.  Passes
        share their make-up, so that time is steady from run to run; the
        slowest op of the whole run is not, as one op caught by the host
        changing speed within its pass sets it (design.json, op_tail_ms).
        """
        slowest: dict[int, float] = {}
        for r, t, c in zip(self.records, self.scaled, self.classes):
            if c in COMPLETED:
                slowest[r["p"]] = max(t, slowest.get(r["p"], 0.0))
        times = [
            t if c in COMPLETED else slowest.get(r["p"], max(self.scaled))
            for r, t, c in zip(self.records, self.scaled, self.classes)
        ]
        return 1000 * harrell_davis(times, percentile / 100)

    def rates(self) -> dict[str, float]:
        """Work per scaled second of op time: the median over whole passes.

        Every pass has the same make-up, so a pass is the unit of work.
        Failed ops add their time and no work.
        """
        per_pass = [[0.0, 0, 0, 0] for _ in range(self.passes)]
        for r, t, e, c in zip(self.records, self.scaled, self.expected, self.classes):
            tally = per_pass[r["p"]]
            tally[0] += t
            if c in COMPLETED:
                tally[1] += 1
                tally[2] += e[2]
                tally[3] += e[3]
        return {
            name: statistics.median(t[j] / t[0] for t in per_pass)
            for j, name in enumerate(("ops_per_s", "values_per_s", "digits_per_s"), 1)
        }

    def end_to_end(self, setup_s: float, summary: dict, tail: float) -> dict:
        return {
            "setup_s": setup_s,
            "peak_rss_mb": summary["first_pass_rss_kb"] / 1024,
            "ok_frac": self.completed / len(self.records),
            **self.rates(),
            "op_p50_ms": self.latency_ms(50),
            "op_tail_ms": self.latency_ms(tail),
        }

    def report(self) -> list[str]:
        failures = ", ".join(
            f"{c} {n}" for c, n in sorted(self.tally.items()) if c not in COMPLETED
        )
        lines = [
            f"  {self.passes} passes, {len(self.records)} ops attempted, "
            f"{self.completed} completed ({', '.join(f'{c} {self.tally[c]}' for c in COMPLETED)}), "
            f"{self.failed} failed ({failures or 'none'}), op time {self.op_time:.3f} s"
        ]
        lines += [f"  WRONG OUTPUT: {a}" for a in self.wrong_ops()]
        lines += [f"  unpredicted failure {a}" for a in self.unpredicted_failures()]
        return lines


def measure(setup_s, seconds, plan, checker, bench, launcher=None):
    passes = [plan.ops(p) for p in range(MAX_PASSES)]
    records, summary = run_worker(passes, "plain", seconds, 1, launcher)
    outcomes = Outcomes(records, passes, checker, summary)
    tail = max(TAIL_FLOOR, 100 * (1 - TAIL_SAMPLES / len(records)))
    beyond = round(len(records) * (1 - tail / 100), 6)
    metrics = outcomes.end_to_end(setup_s, summary, tail)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"BENCHMARK.json lists {sorted(units)}, run measures {sorted(metrics)}")
    lines = outcomes.report()
    lines.append(f"  failed_frac {outcomes.failed / len(records):.6f} ratio")
    lines += [f"  {k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines.append(
        f"  op_tail_ms is p{tail:.2f} of {len(records)} ops, {beyond:.1f} beyond it"
        + (f"; too few ops for {TAIL_SAMPLES} beyond it" if beyond < TAIL_SAMPLES else "")
    )
    lines.append(
        f"  rates and latencies are scaled to the nominal host; host slowness per "
        f"pass {min(outcomes.slowness):.3f}..{max(outcomes.slowness):.3f}, "
        f"unscaled op time {outcomes.op_time:.3f} s"
    )
    result = {
        "correct": not outcomes.wrong_ops(),
        "attempted": len(records),
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def traced(plan, checker, bench):
    passes = [plan.ops(p) for p in range(TRACE_PASSES)]
    runs = {}
    for mode in ("plain", "spans", "counts"):
        records, summary = run_worker(passes, mode, 0, TRACE_PASSES)
        runs[mode] = (Outcomes(records, passes, checker, summary), summary)
    plain, spans, counts = (runs[m][0] for m in ("plain", "spans", "counts"))
    figures = dict(runs["spans"][1]["layers"])
    figures.update(runs["counts"][1]["layers"])
    # Scaled op times, since the two workers ran at different moments.
    figures["trace_overhead_frac"] = sum(spans.scaled) / sum(plain.scaled) - 1
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    unknown = {k for k in figures if k.endswith(("_s", "_calls", "errors", "refusals"))} - set(units)
    if unknown:
        raise RuntimeError(f"traced figures missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {k: figures.get(k, 0) for k in units}
    op_s = metrics.get("cli.op_s") or 1
    lines = plain.report()
    for k, v in metrics.items():
        share = f" ({100 * v / op_s:.1f}% of traced op time)" if k.endswith("_s") else ""
        lines.append(f"  {k} {v:.6g} {units[k]}{share}")
    wrong = plain.wrong_ops() + spans.wrong_ops() + counts.wrong_ops()
    result = {
        "correct": not wrong,
        "attempted": len(plain.records),
        "failed": plain.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def run(name: str, seed: int, seconds: float, trace: bool, launcher=None) -> dict:
    """Measure one workload; print the report and the result line."""
    if not (ROOT / "src" / "carlitz" / "cli.py").is_file():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'carlitz'} is missing")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    ref = reference.load(work)
    checker = Checker(ref)
    # Set-up is timed before the run's b-files are written, so that their
    # write-back does not compete with the interpreters it starts.
    setup_s = None if trace else setup_seconds()
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        plan = Plan(name, seed, ref, run_dir)
        if trace:
            lines, result = traced(plan, checker, bench)
        else:
            lines, result = measure(setup_s, seconds, plan, checker, bench, launcher)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"perfbench {name} seed={seed} trace={int(trace)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
