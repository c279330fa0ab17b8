"""Statistical profiling substrate (paper §2, "statistical detection").

Everything here is one Spark job with a driver-side reduction:
per-column value distributions, missing ratios and unique ratios from
one grouped count of the cells, or from a value cube — one scan of the
columns, deduplicated on the driver, whose distinct rows also give the
duplicate-row statistics (:mod:`column_profile`) — and entropy-based
single-attribute functional-dependency discovery from that value cube
(:mod:`fd`, after Beskales et al. as cited by the paper §2.1.6). The
profiles are what Cocoon puts into the LLM prompts so the model can
reason about data too large to fit in context.
"""
from repro.profiling.column_profile import (
    ColumnProfile,
    duplicate_rows,
    profile_cube,
    profile_cube_rows,
    profile_table,
)
from repro.profiling.fd import FDCandidate, discover_fds, violating_groups

__all__ = [
    "ColumnProfile",
    "FDCandidate",
    "discover_fds",
    "duplicate_rows",
    "profile_cube",
    "profile_cube_rows",
    "profile_table",
    "violating_groups",
]
