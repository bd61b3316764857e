"""Closed-loop client that runs CLI ops inside one fresh interpreter.

Started by run.py once per measured pass set, so process caches (the
factorial cache, the once-per-process k=4 self-check) never leak from one
run into the next.  Reads JSON lines on stdin: first

    {"root": ..., "mode": "plain" | "spans" | "counts",
     "seconds": float, "min_passes": int}

then one list of argvs per pass, read only when the pass starts so that
queued passes do not count in the worker's memory.  It calls
`carlitz.cli.main` with each argv exactly as the `carlitz` console script
would, one op at a time, and starts another pass only while fewer than
`seconds` have gone by (it always runs `min_passes`).  For each op it
writes one JSON line to stdout: pass and op index, exit code or
exception, a digest of what the op printed, the op's wall time, and the
times of the slices of fixed calibration work (calibrate.py) run after
it.  A last line carries the peak RSS after the first pass, slices that
catch up with the calibration budget and, in the traced modes, the layer
figures.  This process never changes the interpreter's int/str digit
limit or recursion limit.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate

#: Calibration slices take this share of the op time, spread between ops.
CALIBRATION_SHARE = 0.10


class Capture(io.TextIOBase):
    """A text stream that hashes what is written as it arrives.

    It keeps none of the text, as the reader of a pipe would not, so the
    worker's memory holds only what the program itself holds.
    """

    def __init__(self):
        self.sha = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if not isinstance(s, str):
            raise TypeError(f"write() argument must be str, not {type(s).__name__}")
        self.sha.update(s.encode())
        return len(s)

    def digest(self) -> str:
        return self.sha.hexdigest()


def run_op(main, argv: list[str], tracer) -> dict:
    out, err = Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code, exc = 0, None
    start = time.perf_counter()
    try:
        if tracer is None:
            main.main(args=argv, prog_name="carlitz")
        else:
            tracer.op(main.main, args=argv, prog_name="carlitz")
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    except Exception as error:  # a traceback for a user; recorded, never raised
        exc = error
    elapsed = time.perf_counter() - start
    sys.stdout, sys.stderr = saved
    return {
        "code": 1 if exc is not None else code,
        "exc": type(exc).__name__ if exc is not None else None,
        "msg": str(exc)[:300] if exc is not None else err.getvalue()[:300],
        "sha": out.digest(),
        "t": elapsed,
    }


def peak_rss_kb() -> int:
    """This process image's peak resident set size.

    getrusage's ru_maxrss would also count the parent's memory, which
    Linux carries across fork and exec; VmHWM belongs to this image.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def serve(lines, install=None) -> None:
    """Run the passes read from lines; `install` may patch the program first."""
    payload = json.loads(next(lines))
    src = Path(payload["root"]) / "src"
    sys.path.insert(0, str(src))
    import carlitz.cli

    if not Path(carlitz.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"carlitz imported from {carlitz.cli.__file__}, not {src}")
    if install is not None:
        install()
    tracer = None
    if payload["mode"] != "plain":
        import tracer as tracing

        tracer = tracing.install(payload["mode"])
    emit = sys.stdout
    began = time.perf_counter()
    op_time = calibration_time = 0.0
    first_pass_rss_kb = None
    for p, line in enumerate(lines):
        if p >= payload["min_passes"] and time.perf_counter() - began >= payload["seconds"]:
            break
        ops = json.loads(line)
        for i, argv in enumerate(ops):
            record = run_op(carlitz.cli.main, argv, tracer)
            op_time += record["t"]
            # Calibration slices keep pace with the ops, so they sample the
            # host at the same moments the ops ran.  None run in the first
            # pass, whose peak memory is measured: their allocations would
            # move it with the host's speed.
            budget = CALIBRATION_SHARE * op_time - calibration_time if p else 0.0
            record.update(p=p, i=i, cal=calibrate.slices(budget))
            calibration_time += sum(record["cal"])
            emit.write(json.dumps(record) + "\n")
        if first_pass_rss_kb is None:
            first_pass_rss_kb = peak_rss_kb()
    summary = {
        "first_pass_rss_kb": first_pass_rss_kb,
        "cal": calibrate.slices(CALIBRATION_SHARE * op_time - calibration_time),
    }
    if tracer is not None:
        summary["layers"] = tracer.figures()
    emit.write(json.dumps({"summary": summary}) + "\n")
    emit.flush()


if __name__ == "__main__":
    serve(sys.stdin)
