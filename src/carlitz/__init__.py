"""Exact counting of Carlitz words (no two adjacent symbols equal) over
multisets of symbols, by four independent methods: brute-force
enumeration, inclusion-exclusion sums, factorial substitution, and
P-recurrences.
"""

from .bfile import BFileEntry, BFileFormatError, parse_bfile_lines, read_bfile
from .exact import (
    InexactDivisionError,
    compositions,
    exact_div,
    factorial,
    multinomial,
    phi,
    poly_mul,
)
from .formulas import (
    a1,
    a2_inclusion_exclusion,
    a3_inclusion_exclusion,
    a4_inclusion_exclusion,
    phi_base,
    phi_count,
    phi_count_range,
    upper_bound,
)
from .recurrences import (
    CoupledState3,
    CoupledState4,
    SelfCheckError,
    a2_prime_range,
    a2_prime_rec,
    a3_prime_coupled,
    a3_prime_coupled_range,
    a3_prime_fourterm,
    a3_prime_fourterm_range,
    a4_prime_coupled,
    a4_prime_coupled_range,
)
from .words import (
    MultiplicityVector,
    SizeLimitError,
    count_carlitz_by_filter,
    count_carlitz_total,
    count_ordered_carlitz,
    enumerate_ordered_carlitz,
    is_carlitz,
    is_ordered,
)

__all__ = [
    "BFileEntry",
    "BFileFormatError",
    "CoupledState3",
    "CoupledState4",
    "InexactDivisionError",
    "MultiplicityVector",
    "SelfCheckError",
    "SizeLimitError",
    "a1",
    "a2_inclusion_exclusion",
    "a2_prime_range",
    "a2_prime_rec",
    "a3_inclusion_exclusion",
    "a3_prime_coupled",
    "a3_prime_coupled_range",
    "a3_prime_fourterm",
    "a3_prime_fourterm_range",
    "a4_inclusion_exclusion",
    "a4_prime_coupled",
    "a4_prime_coupled_range",
    "compositions",
    "count_carlitz_by_filter",
    "count_carlitz_total",
    "count_ordered_carlitz",
    "enumerate_ordered_carlitz",
    "exact_div",
    "factorial",
    "is_carlitz",
    "is_ordered",
    "multinomial",
    "parse_bfile_lines",
    "phi",
    "phi_base",
    "phi_count",
    "phi_count_range",
    "poly_mul",
    "read_bfile",
    "upper_bound",
]
