"""Exact counting of Carlitz words (no two adjacent symbols equal) over
multisets of symbols, by four independent methods: dynamic programs over
the multiset's count vector, inclusion-exclusion sums, factorial
substitution, and P-recurrences.
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
    inclusion_exclusion,
    inclusion_exclusion_range,
    phi_base,
    phi_count,
    phi_count_stream,
    terms,
    upper_bound,
)
from .recurrences import (
    SelfCheckError,
    State,
    a3_prime_fourterm,
    a3_prime_fourterm_range,
    prime,
    prime_stream,
    state,
    states,
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
    "InexactDivisionError",
    "MultiplicityVector",
    "SelfCheckError",
    "SizeLimitError",
    "State",
    "a3_prime_fourterm",
    "a3_prime_fourterm_range",
    "compositions",
    "count_carlitz_by_filter",
    "count_carlitz_total",
    "count_ordered_carlitz",
    "enumerate_ordered_carlitz",
    "exact_div",
    "factorial",
    "inclusion_exclusion",
    "inclusion_exclusion_range",
    "is_carlitz",
    "is_ordered",
    "multinomial",
    "parse_bfile_lines",
    "phi",
    "phi_base",
    "phi_count",
    "phi_count_stream",
    "poly_mul",
    "prime",
    "prime_stream",
    "read_bfile",
    "state",
    "states",
    "terms",
    "upper_bound",
]
