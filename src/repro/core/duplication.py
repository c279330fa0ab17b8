"""Duplication (§2.1.7): semantically erroneous duplicate rows.

Statistical detection finds exactly-duplicated rows (over the content
columns — a surrogate ``row_id`` is excluded from row identity): the
pipeline's stage C statistics (:func:`repro.profiling.profile_cube_rows`
of its folded value cube) give every repeated row with its count. The LLM judges whether duplication
is semantically acceptable (e.g. coarse logging). Erroneous duplicates
are removed with a dedupe layer equivalent to the paper's ``SELECT
DISTINCT`` (a window keeps the first-``row_id`` copy so surrogate ids
stay stable).
"""
from __future__ import annotations

from repro.core.outcome import ROW_ID, StepReport, TableOutcome
from repro.core.sql_emit import Layer
from repro.llm.client import LLMClient
from repro.profiling.column_profile import duplicate_rows


def clean_duplication(
    table: str,
    content_cols: list[str],
    repeated: list[tuple[str, int]],
    llm: LLMClient,
) -> TableOutcome:
    """``repeated`` is :func:`~repro.profiling.profile_cube_rows`' list
    of repeated rows over ``content_cols``."""
    surplus, samples = duplicate_rows(repeated, content_cols)
    if surplus == 0:
        return TableOutcome((), (StepReport(
            "duplication", None, False, "no duplicate rows"),))
    review = llm.review_duplication(table, surplus, samples)
    found = f"{surplus} surplus duplicate rows"
    if review.acceptable:
        return TableOutcome((), (StepReport(
            "duplication", None, True, f"{found}; acceptable"),))
    layer = Layer("clean_duplication", kind="window_dedupe",
                  comments=[review.reasoning], key_cols=content_cols,
                  order_col=ROW_ID)
    return TableOutcome((layer,), (StepReport(
        "duplication", None, True, f"{found}; removed"),))
