"""String outliers (§2.1.1): semantic typo / inconsistency cleaning.

Statistical detection samples the frequent values of a column (default
1000); the LLM reviews them batch-by-batch (default batch 1000) for
typos and inconsistent representations (Fig. 2), then builds an
erroneous->correct mapping (Fig. 3) executed as a ``CASE WHEN`` layer.
"""
from __future__ import annotations

from repro.core.outcome import ColumnOutcome
from repro.llm.client import LLMClient, ValueCounts


def clean_string_outliers(
    column: str,
    counts: ValueCounts,
    llm: LLMClient,
    *,
    batch_size: int = 1000,
    context_top: int = 200,
) -> ColumnOutcome:
    """Review value batches and collect the combined cleaning mapping.

    Each cleaning call sees the batch plus the column's overall most
    frequent values (``context_top``) so a typo in a late batch can
    still be mapped onto a frequent correct value from an early one.
    The SQL comment is the reasoning of the last prompt in call order.
    """
    top_context = counts[:context_top]
    reasoning = ""
    mapping: dict[str, str] = {}
    for start in range(0, len(counts), batch_size):
        batch = counts[start:start + batch_size]
        seen = {v for v, _ in batch}
        # every batch prompt also carries the column's overall most
        # frequent values, so typos in late batches can be recognized
        # against (and mapped onto) donors from early batches
        frequent = list(batch) + [vc for vc in top_context if vc[0] not in seen]
        review = llm.review_string_outliers(column, frequent)
        reasoning = review.reasoning
        if not review.unusual:
            continue
        batch_unusual = [v for v in review.unusual_values if v in seen]
        if not batch_unusual:
            continue
        fix = llm.map_string_outliers(column, batch_unusual, frequent)
        reasoning = fix.reasoning
        for bad, good in fix.mapping.items():
            if bad != good:
                mapping[bad] = good
    # collapse chains (a->b, b->c) so one SQL pass lands on the final value
    for bad in list(mapping):
        seen = {bad}
        tgt = mapping[bad]
        while tgt in mapping and tgt not in seen:
            seen.add(tgt)
            tgt = mapping[tgt]
        mapping[bad] = tgt
    if not mapping:
        return ColumnOutcome(False, "no string outliers")
    return ColumnOutcome(True, f"mapped {len(mapping)} values",
                         reasoning, mapping=mapping)
