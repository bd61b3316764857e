"""Layer spans and counters for the traced run, from outside the program.

`install("spans")` replaces the module attributes that `carlitz.cli`
calls through with timing wrappers; each op is a root span of layer
`cli`, and a layer's self time is its span time minus its child spans.
`install("counts")` instead wraps the hot `exact` helpers (factorial,
multinomial, exact_div) wherever a carlitz module bound them; it runs in
a pass of its own so that these per-call wrappers do not inflate the
span times.  Entry points missing from the program are skipped, so a
renamed function reads as zero, not as a crash.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _last_int(args, result):
    return args[-1] + 1 if args and isinstance(args[-1], int) else 0


def _length(args, result):
    return len(result)


def _value(args, result):
    return result if isinstance(result, int) else 0


# (module, attribute, layer, time metric, work counter, work of one call)
SPANS = [
    ("formulas", "a1", "formulas", "incl_excl", "incl_excl_calls", None),
    ("formulas", "a2_inclusion_exclusion", "formulas", "incl_excl", "incl_excl_calls", None),
    ("formulas", "a3_inclusion_exclusion", "formulas", "incl_excl", "incl_excl_calls", None),
    ("formulas", "a4_inclusion_exclusion", "formulas", "incl_excl", "incl_excl_calls", None),
    ("formulas", "a4_phi", "formulas", "phi", "phi_calls", None),
    ("formulas", "a4_phi_range", "formulas", "phi", "phi_calls", None),
    ("recurrences", "a_from_ordered", "recurrences", "point", "states", _last_int),
    ("recurrences", "a2_prime_rec", "recurrences", "point", "states", _last_int),
    ("recurrences", "a3_prime_coupled", "recurrences", "point", "states", _last_int),
    ("recurrences", "a4_prime_coupled", "recurrences", "point", "states", _last_int),
    ("recurrences", "a2_prime_range", "recurrences", "range", "states", _length),
    ("recurrences", "a3_prime_coupled_range", "recurrences", "range", "states", _length),
    ("recurrences", "a4_prime_coupled_range", "recurrences", "range", "states", _length),
    ("recurrences", "a3_prime_fourterm_range", "recurrences", "fourterm", "states", _length),
    ("words", "count_ordered_carlitz", "words", "ordered", "ordered_words", _value),
    ("words", "count_carlitz_total", "words", "total_dp", "total_dp_calls", None),
    ("cli", "read_bfile", "bfile", "read", "read_entries", _length),
]

# Generator functions: each next() is one span, each item one unit of work.
TERM_STREAMS = [("formulas", f"a{k}_terms") for k in (2, 3, 4)]

EXACT_HELPERS = ("factorial", "multinomial", "exact_div")


class Spans:
    """Inclusive time per span name, work counters, and errors per layer."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [span name, seconds in child spans]

    def inside(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][0].startswith(layer + ".")

    def enter(self, name: str) -> bool:
        """Open a span, unless a span of the same layer is open: a layer's
        calls to its own functions (a2_inclusion_exclusion summing
        a2_terms, a_from_ordered calling a2_prime_rec) fold into it."""
        if self.inside(name.split(".")[0]):
            return False
        self._stack.append([name, 0.0])
        return True

    def leave(self, name: str, elapsed: float) -> None:
        _, child = self._stack.pop()
        self.seconds[name] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed
        if name == "cli.op":
            self.seconds["cli.self"] += elapsed - child

    def error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost layer it left."""
        if getattr(exc, "_perfbench_layer", None) is not None:
            return
        try:
            exc._perfbench_layer = layer
        except AttributeError:
            pass
        if type(exc).__name__ == "SizeLimitError":
            self.counts[f"{layer}.refusals"] += 1
        else:
            self.counts[f"{layer}.errors"] += 1

    def op(self, fn, **kwargs):
        """One CLI op, as the root span of layer cli."""
        self.enter("cli.op")
        start = perf_counter()
        try:
            return fn(**kwargs)
        except Exception as exc:
            self.error("cli", exc)
            raise
        finally:
            self.leave("cli.op", perf_counter() - start)

    def figures(self) -> dict:
        out = {f"{name}_s": s for name, s in self.seconds.items()}
        out.update(self.counts)
        return out


def _wrap_call(spans: Spans, fn, name, layer, counter, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not spans.enter(name):
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            spans.error(layer, exc)
            raise
        finally:
            spans.leave(name, perf_counter() - start)
        spans.counts[counter] += 1 if work is None else work(args, result)
        return result

    return wrapper


def _wrap_stream(spans: Spans, fn, name, layer, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        if spans.inside(layer):
            yield from items
            return
        while True:
            opened = spans.enter(name)
            start = perf_counter()
            try:
                item = next(items)
            except StopIteration:
                return
            except Exception as exc:
                spans.error(layer, exc)
                raise
            finally:
                if opened:
                    spans.leave(name, perf_counter() - start)
            spans.counts[counter] += 1
            yield item

    return wrapper


def _module(name: str):
    return sys.modules.get(f"carlitz.{name}")


def install_spans() -> Spans:
    spans = Spans()
    for mod_name, attr, layer, metric, counter, work in SPANS:
        mod = _module(mod_name)
        fn = getattr(mod, attr, None)
        if callable(fn):
            name = f"{layer}.{metric}"
            setattr(mod, attr, _wrap_call(spans, fn, name, layer, f"{layer}.{counter}", work))
    for mod_name, attr in TERM_STREAMS:
        mod = _module(mod_name)
        fn = getattr(mod, attr, None)
        if callable(fn):
            setattr(mod, attr, _wrap_stream(spans, fn, "formulas.terms", "formulas", "formulas.terms_count"))
    exact = _module("exact")
    poly = getattr(exact, "RationalPoly", None)
    if poly is not None:
        poly.__mul__ = _wrap_call(
            spans, poly.__mul__, "exact.poly_mul", "exact", "exact.poly_mul_calls", None
        )
    return spans


class Counts:
    """Calls into the exact helpers and the widest integer they return."""

    def __init__(self):
        self.counts = defaultdict(int)

    def op(self, fn, **kwargs):
        return fn(**kwargs)

    def wrap(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "InexactDivisionError" and not getattr(
                    exc, "_perfbench_counted", False
                ):
                    exc._perfbench_counted = True
                    counts["exact.errors"] += 1
                raise
            if isinstance(result, int) and result.bit_length() > counts["exact.max_bits"]:
                counts["exact.max_bits"] = result.bit_length()
            return result

        return wrapper

    def figures(self) -> dict:
        return dict(self.counts)


def install_counts() -> Counts:
    counts = Counts()
    exact = _module("exact")
    for attr in EXACT_HELPERS:
        original = getattr(exact, attr, None)
        if not callable(original):
            continue
        wrapped = counts.wrap(original, f"exact.{attr}_calls")
        for name, mod in list(sys.modules.items()):
            if name == "carlitz" or name.startswith("carlitz."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return counts


def install(mode: str):
    if mode == "spans":
        return install_spans()
    if mode == "counts":
        return install_counts()
    raise ValueError(f"unknown trace mode {mode!r}")
