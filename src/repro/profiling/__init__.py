"""Statistical profiling substrate (paper §2, "statistical detection").

Everything here is reduced on the driver from one value cube: one
Spark scan of a table's columns, each column dictionary-encoded once
(:mod:`fd`). Per-column value distributions, missing ratios and unique
ratios are its per-column counts, and its repeated code rows are the
duplicate rows (:mod:`column_profile`); entropy-based single-attribute
functional-dependency discovery reads its code pairs (:mod:`fd`, after
Beskales et al. as cited by the paper §2.1.6). The profiles are what
Cocoon puts into the LLM prompts so the model can reason about data too
large to fit in context.
"""
from repro.profiling.column_profile import (
    ColumnProfile,
    duplicate_rows,
    profile_cube,
    profile_cube_rows,
)
from repro.profiling.fd import FDCandidate, discover_fds, violating_groups

__all__ = [
    "ColumnProfile",
    "FDCandidate",
    "discover_fds",
    "duplicate_rows",
    "profile_cube",
    "profile_cube_rows",
    "violating_groups",
]
