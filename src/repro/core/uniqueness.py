"""Column uniqueness (§2.1.8): near-unique key columns.

Statistical detection computes each column's unique ratio; for columns
that are *almost* unique the LLM decides whether the column should be a
key and which column prioritizes the record to keep (e.g. the latest
time). Cleaning is a window function keyed on the column.
"""
from __future__ import annotations

from repro.core.outcome import StepReport, TableOutcome
from repro.core.sql_emit import Layer
from repro.llm.client import LLMClient

#: the lowest unique ratio at which a column may still be a dirty key
MIN_RATIO = 0.95


def clean_uniqueness(
    columns: list[str],
    unique_ratios: dict[str, float],
    llm: LLMClient,
) -> TableOutcome:
    """One dedupe window per should-be-unique column with duplicates.

    Columns with ratio exactly 1.0 are already unique — nothing to
    clean; columns below ``MIN_RATIO`` are clearly not keys, so the
    LLM is not consulted (mirrors the paper's statistical pre-filter).
    """
    layers: list[Layer] = []
    steps: list[StepReport] = []
    for col in columns:
        ratio = unique_ratios.get(col, 1.0)
        if not (MIN_RATIO <= ratio < 1.0):
            continue
        others = [c for c in columns if c != col]
        review = llm.review_uniqueness(col, ratio, others)
        if not review.should_be_unique:
            continue
        order_by = review.order_by
        layers.append(Layer(
            f"clean_uniqueness_{col}", comments=[review.reasoning],
            key_cols=[col], order_col=order_by))
        steps.append(StepReport(
            "uniqueness", col, True,
            f"deduplicated on {col} keeping "
            + (f"latest {order_by}" if order_by else "first row")))
    if not steps:
        steps.append(StepReport(
            "uniqueness", None, False,
            "no should-be-unique column with duplicates"))
    return TableOutcome(tuple(layers), tuple(steps))
