"""Column type (§2.1.4): cast columns to their semantic type.

The LLM inspects the catalog type plus value sample and suggests the
semantically suitable type (the paper's "yes"/"no" -> BOOLEAN example).
Cleaning rewrites each observed rendering to the canonical rendering of
the target type ("yes" -> "True", "1 hour 40 min" -> "100.0") via CASE
WHEN; the intended ``CAST`` travels as a SQL comment since benchmark
tables are scored as text (paper §3.1 evaluation notes).

The step is skipped when the profile does not cover every distinct value
(a mapping built from a sample could silently miss renderings).
"""
from __future__ import annotations

from repro.core.outcome import ColumnOutcome
from repro.llm.client import LLMClient, ValueCounts


def clean_column_type(
    column: str,
    counts: ValueCounts,
    llm: LLMClient,
    *,
    n_distinct: int,
    current_type: str = "VARCHAR",
) -> ColumnOutcome:
    if n_distinct > len(counts):
        return ColumnOutcome(False, f"type {current_type}, no rewrite needed")
    s = llm.suggest_type(column, current_type, list(counts))
    if not s.mapping:
        return ColumnOutcome(False, f"type {s.target_type}, no rewrite needed")
    return ColumnOutcome(
        True, f"cast to {s.target_type} ({len(s.mapping)} values rewritten)",
        f"CAST AS {s.target_type} -- {s.reasoning}", mapping=s.mapping)
