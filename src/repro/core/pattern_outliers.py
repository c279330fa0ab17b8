"""Pattern outliers (§2.1.2): regex-level representation consistency.

The LLM derives semantically meaningful regex patterns from the value
shapes, verifies coverage, and proposes a normalization for values whose
shape departs from the dominant pattern (e.g. stray trailing characters,
a minority date format). Cleaning is a value-mapping ``CASE WHEN`` layer
— enumerable because the statistical profile bounds the distinct values.
"""
from __future__ import annotations

from repro.core.outcome import ColumnOutcome
from repro.llm.client import LLMClient, ValueCounts


def clean_pattern_outliers(column: str, counts: ValueCounts,
                           llm: LLMClient) -> ColumnOutcome:
    """Detected means the LLM found the patterns inconsistent, even when
    it proposes no normalization."""
    review = llm.review_patterns(column, list(counts))
    if not review.inconsistent:
        return ColumnOutcome(False, "patterns consistent")
    return ColumnOutcome(
        True, f"normalized {len(review.mapping)} values to the dominant "
        "pattern", review.reasoning, values=review.mapping)
