"""Duplicate-row and uniqueness statistics (paper §2.1.7-§2.1.8)."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def duplicate_rows(
    df: DataFrame, *, subset: list[str] | None = None, sample: int = 5
) -> tuple[int, list[str]]:
    """Count of surplus exactly-duplicated rows, plus sample renderings.

    A row appearing ``k`` times contributes ``k - 1`` surplus rows — the
    number ``SELECT DISTINCT`` would remove. ``subset`` restricts the
    row identity to those columns (callers exclude surrogate ids).
    """
    cols = subset if subset is not None else df.columns
    groups = (
        df.groupBy(*cols)
        .agg(F.count(F.lit(1)).alias("_cnt"))
        .where(F.col("_cnt") > 1)
    )
    agg = groups.agg(
        F.coalesce(F.sum(F.col("_cnt") - 1), F.lit(0)).alias("surplus")
    ).collect()[0]
    surplus = int(agg["surplus"])
    examples: list[str] = []
    if surplus:
        for r in groups.orderBy(F.desc("_cnt")).limit(sample).collect():
            examples.append(
                ", ".join(f"{c}={r[c]!r}" for c in cols) + f" (x{r['_cnt']})"
            )
    return surplus, examples


def unique_ratios(df: DataFrame, columns: list[str]) -> dict[str, float]:
    """distinct / non-null count of each column (1.0 for an empty
    column), in one aggregation."""
    aggs = []
    for c in columns:
        aggs.append(F.count_distinct(F.col(c)).alias(f"{c}__d"))
        aggs.append(F.count(F.col(c)).alias(f"{c}__n"))
    row = df.agg(*aggs).collect()[0]
    return {c: row[f"{c}__d"] / row[f"{c}__n"] if row[f"{c}__n"] else 1.0
            for c in columns}
