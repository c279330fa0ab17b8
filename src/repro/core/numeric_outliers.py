"""Numeric outliers (§2.1.5): semantic range thresholding.

Statistics capture the numeric envelope (min/max); the LLM reviews the
semantically acceptable range for the column. Values outside the range
are nulled with a ``CASE WHEN`` threshold clause. Runs after the type
step (§2.1's ordering), so values are canonical numeric renderings.
"""
from __future__ import annotations

import re

from repro.core.outcome import ColumnOutcome
from repro.llm.client import LLMClient, ValueCounts

_NUM_RE = re.compile(r"^\s*-?\d+(\.\d+)?\s*$")
_NONE = ColumnOutcome(False, "no numeric outliers")


def clean_numeric_outliers(
    column: str,
    counts: ValueCounts,
    llm: LLMClient,
    *,
    n_distinct: int,
    min_numeric_frac: float = 0.8,
) -> ColumnOutcome:
    """Flag enumerated out-of-range values of a numeric-looking column.

    Skipped when the column is not predominantly numeric or when
    ``n_distinct`` exceeds ``len(counts)``: the profile missed values,
    and the out-of-range list must be exhaustive to be emitted as an
    ``IN`` clause.
    """
    numeric = [(v, c, float(v)) for v, c in counts if _NUM_RE.match(v)]
    total = sum(c for _, c in counts)
    if not numeric or n_distinct > len(counts):
        return _NONE
    if sum(c for _, c, _ in numeric) / max(total, 1) < min_numeric_frac:
        return _NONE
    lo = min(x for _, _, x in numeric)
    hi = max(x for _, _, x in numeric)
    review = llm.review_numeric_range(column, lo, hi)
    out = sorted(v for v, _, x in numeric
                 if (review.lo is not None and x < review.lo)
                 or (review.hi is not None and x > review.hi))
    if not review.has_range or not out:
        return _NONE
    return ColumnOutcome(True, f"nulled out-of-range values {out!r}",
                         review.reasoning, nulled=tuple(out))
