"""RetClean-style baseline: retrieval-based cleaning without a lake.

RetClean (Ahmad et al.) repairs cells by retrieving evidence tuples from
user-provided data-lake tables and letting a foundation model pick the
repair. The paper provides no lake tables, so retrieval yields nothing
and only the foundation-model fallback remains: conservative
word-level typo fixes on long free-text cells (the mechanism behind its
nonzero score on Rayyan only, whose "large number of typos [are]
obvious for LLMs to fix").

A column qualifies for the fallback when it is near-unique free text
(unique ratio > 0.9, average >= 4 words) — the retrieval-target shape.
The profiles are the marginals of one value cube of the input (one
Spark scan, as for Cocoon and Raha+Baran), and the repairs are one
layer carrying a value map per column, rendered as portable SQL.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.sql_emit import Layer, build_sql
from repro.llm import knowledge as kb
from repro.profiling.column_profile import profile_cube
from repro.profiling.fd import value_cube


def retclean_clean(dirty: DataFrame) -> DataFrame:
    spark = dirty.sparkSession
    cols = [c for c in dirty.columns if c != "row_id"]
    profiles = profile_cube(value_cube(dirty, cols))
    layer = Layer("retclean_fallback")
    for col in cols:
        prof = profiles[col]
        if prof.unique_ratio <= 0.9 or not prof.top_values:
            continue
        avg_words = sum(
            len(v.split()) * c for v, c in prof.top_values
        ) / max(1, sum(c for _, c in prof.top_values))
        if avg_words < 4:
            continue
        mapping = {}
        for v, _c in prof.top_values:
            fixed = kb.fix_words(v)
            if fixed is not None and fixed != v:
                mapping[v] = fixed
        if mapping:
            layer.decision[col] = mapping
            layer.comments.append(
                f"{col}: foundation-model spelling fixes on free text")
    view = "retclean_input"
    dirty.createOrReplaceTempView(view)
    return spark.sql(build_sql(view, [layer] if layer.decision else [],
                               list(dirty.columns)))
