"""Acceptance gate: seven end-to-end criteria over the whole artifact.

Each criterion is one test.  It prints exactly one line,
`PASS criterion N (name)` or `FAIL criterion N (name)`, to the real
terminal (outside pytest's capture) so a full run shows the gate status
at a glance.  All comparisons are exact; each criterion also enforces
its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import formulas, recurrences
from carlitz.cli import main
from carlitz.exact import (
    InexactDivisionError,
    exact_div,
    factorial,
    multinomial,
)
from carlitz.formulas import (
    a2_inclusion_exclusion,
    a3_inclusion_exclusion,
    a4_inclusion_exclusion,
    phi_count,
    phi_count_stream,
)
from carlitz.recurrences import a3_prime_fourterm_range, prime, states
from carlitz.words import (
    MultiplicityVector,
    count_carlitz_by_filter,
    count_carlitz_total,
    count_ordered_carlitz,
    enumerate_ordered_carlitz,
    is_carlitz,
    is_ordered,
)
from test_recurrences import fourterm_fraction_reference

DATA = Path(__file__).parent / "data"

TOTAL_ROWS = {
    1: [1, 1, 2, 6, 24, 120, 720],
    2: [1, 0, 2, 30, 864, 39480, 2631600],
    3: [1, 0, 2, 174, 41304, 19606320, 16438575600],
}
ORDERED_ROWS = {
    2: [1, 0, 1, 5, 36, 329, 3655],
    3: [1, 0, 1, 29, 1721, 163386, 22831355],
}


@contextmanager
def criterion(capsys, num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num} ({name})")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num} ({name}) in {elapsed:.2f}s")


def cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def table_values(k: int, ordered: bool) -> list[int]:
    args = ["table", "--k", k, "--n-max", 6, "--format", "csv"]
    if ordered:
        args.append("--ordered")
    result = cli(*args)
    assert result.exit_code == 0, result.output
    rows = result.output.splitlines()[1:]
    return [int(row.split(",")[1]) for row in rows]


def test_criterion_1_table_reproduction(capsys):
    """`table` reproduces the reference rows exactly for n <= 6."""
    with criterion(capsys, 1, "table reproduction", 1.0):
        for k, expected in TOTAL_ROWS.items():
            assert table_values(k, ordered=False) == expected, f"k={k} unordered"
        for k, expected in ORDERED_ROWS.items():
            assert table_values(k, ordered=True) == expected, f"k={k} ordered"
        assert table_values(3, ordered=False)[6] == 16438575600
        assert table_values(3, ordered=True)[6] == 22831355


def test_criterion_2_worked_example_trace(capsys):
    """--trace reproduces the worked per-term decompositions.

    The k=3, n=3 trace must sum to 174; the 90/36/6 subterms belong to
    the k=2, n=3 decomposition (90 - 90 + 36 - 6 = 30) and must appear
    there with exactly those magnitudes.
    """
    with criterion(capsys, 2, "worked-example trace", 1.0):
        r3 = cli("count", "--k", 3, "--n", 3, "--trace")
        assert r3.exit_code == 0, r3.output
        lines = r3.output.splitlines()
        terms = [int(line.rsplit(None, 1)[1]) for line in lines[:-1]]
        assert sum(terms) == 174
        assert lines[-1] == "total 174"
        assert lines[0] == "s=3 t=0 u=0  +1680"

        r2 = cli("count", "--k", 2, "--n", 3, "--trace")
        assert r2.exit_code == 0, r2.output
        lines = r2.output.splitlines()
        terms = [int(line.rsplit(None, 1)[1]) for line in lines[:-1]]
        assert sum(terms) == 30
        for magnitude in (90, 36, 6):
            assert magnitude in {abs(t) for t in terms}


def test_criterion_3_cross_method_verify(capsys):
    """`verify` passes at n_max=300 for k=2,3 and n_max=100 for k=4."""
    with criterion(capsys, 3, "cross-method verify", 600.0):
        for k, n_max in ((2, 300), (3, 300), (4, 100)):
            result = cli("verify", "--k", k, "--n-max", n_max)
            assert result.exit_code == 0, result.output
            assert "agree" in result.output


def test_criterion_4_oracle_equivalence(capsys):
    """Brute-force word counts match formulas and recurrences."""
    with criterion(capsys, 4, "brute-force oracle equivalence", 120.0):
        # Uniform multisets, ordered counts against both other routes.
        for k, n_top, prime_row in (
            (2, 6, [1, 0, 1, 5, 36, 329, 3655]),
            (3, 5, [1, 0, 1, 29, 1721, 163386]),
            (4, 3, [1, 0, 1, 182]),
        ):
            for n in range(n_top + 1):
                mv = MultiplicityVector.uniform(k, n)
                brute = count_ordered_carlitz(mv)
                assert brute == prime_row[n], (k, n)
                if k == 2:
                    assert brute == prime(2, n)
                    total = a2_inclusion_exclusion(n)
                elif k == 3:
                    assert brute == states(3, n)[-1].p
                    total = a3_inclusion_exclusion(n)
                else:
                    assert brute == states(4, n)[-1].p
                    total = a4_inclusion_exclusion(n)
                assert exact_div(total, factorial(n)) == brute

        # Full enumeration at the largest feasible size: every word
        # checked valid, and the yield count equals the closed forms.
        mv = MultiplicityVector.uniform(3, 5)
        seen = 0
        for w in enumerate_ordered_carlitz(mv):
            assert is_carlitz(w)
            seen += 1
        assert seen == 163386

        # Heterogeneous multisets against the coupled recurrences.
        q3 = [s.q for s in states(3, 4)]
        for n in range(5):
            assert q3[n] == count_ordered_carlitz(
                MultiplicityVector.prefixed(2, 3, n)
            )
        assert q3[2] == 8
        words_q2 = list(
            enumerate_ordered_carlitz(MultiplicityVector.prefixed(2, 3, 2))
        )
        assert len(words_q2) == 8
        assert tuple(int(d) for d in "01202121") in words_q2

        k4 = states(4, 3)
        assert (k4[2].q, k4[2].r) == (58, 11)
        for s in k4:
            assert s.q == count_ordered_carlitz(
                MultiplicityVector.prefixed(3, 4, s.n)
            )
            assert s.r == count_ordered_carlitz(
                MultiplicityVector.prefixed(2, 4, s.n)
            )


def test_criterion_5_divisibility_and_fault_injection(capsys, monkeypatch):
    """Every promised-exact division succeeds; flipped coefficients fail
    loudly."""
    with criterion(capsys, 5, "divisibility and fault injection", 60.0):
        # Per-term divisions in the term streams (each term construction
        # is a checked division), the point's checked division at every
        # coefficient of the step's n-th power and by D^n, and the
        # ordered-count divisibility by n!.
        @given(st.integers(0, 60))
        @settings(max_examples=25, deadline=None)
        def check_sum_terms(n):
            assert sum(t.value for t in formulas.terms(2, n)) == a2_inclusion_exclusion(n)
            if n <= 40:
                assert sum(t.value for t in formulas.terms(3, n)) == a3_inclusion_exclusion(n)
            if n <= 8:
                assert sum(t.value for t in formulas.terms(4, n)) == a4_inclusion_exclusion(n)
            exact_div(a2_inclusion_exclusion(n), factorial(n))

        check_sum_terms()

        # Checked divisions by 2, 3 and 2n inside the recurrences, and
        # the paper's fractional four-term coefficients, every step
        # integral, against the integer engine.
        states(3, 300)
        assert fourterm_fraction_reference(120) == a3_prime_fourterm_range(120)
        states(4, 100)
        # phi-route integrality over the verified range.
        list(phi_count_stream(4, 60))

        # Fault injection: a flipped coefficient in any engine must trip
        # the loud failure path, never return a rounded value.
        def broken3(n, p_prev, p, q_prev):
            q = (3 * n + 2) * p + 2 * q_prev
            p_next = exact_div((3 * n + 2) * q - 2 * (3 * n + 1) * p + 2 * p_prev, 2)
            return (p, q), (p, p_next, q)

        monkeypatch.setattr(recurrences, "_coupled3_step", broken3)
        try:
            recurrences.state(3, 10)
            raise AssertionError("flipped k=3 coefficient went unnoticed")
        except InexactDivisionError:
            pass
        monkeypatch.undo()

        def broken4term(n, p_back2, p_back1, p):
            num = (
                (9 * n**3 + 9 * n**2 + 8 * n + 5) * p
                + (12 * n**2 + 6 * n - 8) * p_back1
                - (4 * n + 4) * p_back2
            )
            p_next = exact_div(num, 2 * n)
            return (p_next,), (p_back1, p, p_next)

        monkeypatch.setattr(recurrences, "_fourterm_step", broken4term)
        try:
            recurrences.a3_prime_fourterm(10)
            raise AssertionError("flipped four-term coefficient went unnoticed")
        except InexactDivisionError:
            pass
        monkeypatch.undo()

        def broken4(n, p_prev, p, q_prev, r_prev):
            r = (4 * n + 3) * p + 3 * q_prev
            q = exact_div((4 * n + 6) * r + 6 * r_prev - (16 * n + 7) * p, 2)
            p_next = exact_div(
                (4 * n + 1) * q
                + 3 * (10 * q_prev - r + 4 * r_prev + (6 * n + 7) * p + p_prev),
                3,
            )
            return (p, q, r), (p, p_next, q, r)

        monkeypatch.setattr(recurrences, "_coupled4_step", broken4)
        monkeypatch.setattr(recurrences, "_oracle_checked", {"k=4 coupled"})
        try:
            recurrences.state(4, 10)
            raise AssertionError("flipped k=4 coefficient went unnoticed")
        except InexactDivisionError:
            pass
        monkeypatch.undo()

        real_base = formulas.phi_base

        def bad_base(k):
            base = real_base(k)
            base[2] += 1
            return base

        monkeypatch.setattr(formulas, "phi_base", bad_base)
        for route in (lambda: phi_count((4, 4)), lambda: list(phi_count_stream(4, 2))):
            try:
                route()
                raise AssertionError("corrupted phi base went unnoticed")
            except InexactDivisionError:
                pass
        monkeypatch.undo()


def test_criterion_6_oeis_bfile_check(capsys, tmp_path):
    """Fixture b-files pass; a corrupted one fails with a correct report."""
    with criterion(capsys, 6, "OEIS b-file check", 1.0):
        for name, k, ordered in (
            ("b114938.txt", 2, False),
            ("b278990.txt", 2, True),
            ("b193638.txt", 3, False),
            ("b190826.txt", 3, True),
        ):
            args = ["oeis-check", DATA / name, "--k", k]
            if ordered:
                args.append("--ordered")
            result = cli(*args)
            assert result.exit_code == 0, (name, result.output)
            assert "7/7 match" in result.output, (name, result.output)

        # Corrupt one value and expect a precise first-mismatch report.
        good = (DATA / "b193638.txt").read_text(encoding="utf-8")
        corrupted = tmp_path / "b193638_corrupt.txt"
        corrupted.write_text(good.replace("3 174", "3 175"), encoding="utf-8")
        result = cli("oeis-check", corrupted, "--k", 3)
        assert result.exit_code == 1, result.output
        assert "first mismatch at index 3: file has 175, computed 174" in result.output
        assert "6/7 match" in result.output


def test_criterion_7_naive_filter_oracle(capsys):
    """On 30 random multisets the DP equals generate-and-filter."""
    with criterion(capsys, 7, "naive-filter oracle", 60.0):
        rng = random.Random(20260823)
        checked = 0
        while checked < 30:
            mults = tuple(
                rng.randint(1, 4) for _ in range(rng.randint(1, 6))
            )
            total = sum(mults)
            if total > 12 or multinomial(total, mults) > 60000:
                continue
            mv = MultiplicityVector(mults)
            assert count_carlitz_total(mv) == count_carlitz_by_filter(mv), mults
            checked += 1
