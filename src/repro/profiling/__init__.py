"""Statistical profiling substrate (paper §2, "statistical detection").

Everything here is a Spark DataFrame scan or aggregation: per-column
value distributions and missing ratios (:mod:`column_profile`),
entropy-based single-attribute functional-dependency discovery
(:mod:`fd`, after Beskales et al. as cited by the paper §2.1.6), and
duplicate-row / unique-ratio scans (:mod:`duplicates`). The profiles are
what Cocoon puts into the LLM prompts so the model can reason about data
too large to fit in context.
"""
from repro.profiling.column_profile import ColumnProfile, profile_table
from repro.profiling.duplicates import duplicate_rows, unique_ratios
from repro.profiling.fd import FDCandidate, discover_fds, violating_groups

__all__ = [
    "ColumnProfile",
    "FDCandidate",
    "discover_fds",
    "duplicate_rows",
    "profile_table",
    "unique_ratios",
    "violating_groups",
]
