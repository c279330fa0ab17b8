"""Disguised missing values (§2.1.3).

The LLM reviews the column's distinct values for strings that are not
NULL but semantically mean missing ("N/A", "null", "-", ...). Cleaning
is ``CASE WHEN col IN (...) THEN NULL ELSE col END``.
"""
from __future__ import annotations

from repro.core.outcome import ColumnOutcome
from repro.llm.client import LLMClient, ValueCounts


def clean_dmv(column: str, counts: ValueCounts,
              llm: LLMClient) -> ColumnOutcome:
    review = llm.review_dmv(column, list(counts))
    values = review.dmv_values
    if not values:
        return ColumnOutcome(False, "no disguised missing values")
    return ColumnOutcome(
        True, f"nulled disguised missing values {list(values)!r}",
        review.reasoning, nulled=values)
