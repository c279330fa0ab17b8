"""Per-column statistical profiles via DataFrame aggregations.

The profile carries exactly what the paper's prompts need: row/null
counts, distinct cardinality, and the top-K value frequencies (the
"sample frequent values (by default 1000)" of §2.1.1). Top values are
ordered by descending count with the value itself as a deterministic
tie-break so profiles — and therefore every downstream LLM decision —
are stable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class ColumnProfile:
    """Statistical summary of one (string) column."""

    name: str
    total: int
    nulls: int
    n_distinct: int
    #: top-K (value, count), count-descending; never contains NULL.
    top_values: tuple[tuple[str, int], ...]

    @property
    def non_null(self) -> int:
        return self.total - self.nulls

    @property
    def unique_ratio(self) -> float:
        return self.n_distinct / self.non_null if self.non_null else 0.0


def profile_table(df: DataFrame, columns: list[str], *,
                  top_k: int = 1000) -> dict[str, ColumnProfile]:
    """Profile many string columns in two Spark jobs total.

    Job 1: one aggregation computes totals / non-null / distinct counts
    for every column. Job 2: the table is unpivoted to (column, value)
    cells, grouped once, and a window keeps each column's top-K values —
    one shuffle for the whole table instead of one per column.
    """
    from pyspark.sql import Window

    aggs = [F.count(F.lit(1)).alias("__total")]
    for c in columns:
        aggs.append(F.count(F.col(c)).alias(f"{c}__nn"))
        aggs.append(F.count_distinct(F.col(c)).alias(f"{c}__d"))
    stats = df.agg(*aggs).collect()[0]
    total = stats["__total"]

    melted = df.unpivot(
        ids=[], values=columns,
        variableColumnName="__col", valueColumnName="__val",
    ).where(F.col("__val").isNotNull())
    ranked = (
        melted.groupBy("__col", "__val")
        .agg(F.count(F.lit(1)).alias("__cnt"))
        .withColumn(
            "__rn",
            F.row_number().over(
                Window.partitionBy("__col")
                .orderBy(F.desc("__cnt"), F.asc("__val"))
            ),
        )
        .where(F.col("__rn") <= top_k)
        .collect()
    )
    tops: dict[str, list[tuple[str, int]]] = {c: [] for c in columns}
    for r in sorted(ranked, key=lambda r: (r["__col"], r["__rn"])):
        tops[r["__col"]].append((r["__val"], r["__cnt"]))
    return {
        c: ColumnProfile(
            name=c,
            total=total,
            nulls=total - stats[f"{c}__nn"],
            n_distinct=stats[f"{c}__d"],
            top_values=tuple(tops[c]),
        )
        for c in columns
    }

