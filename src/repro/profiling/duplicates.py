"""Duplicate-row statistics (paper §2.1.7)."""
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

