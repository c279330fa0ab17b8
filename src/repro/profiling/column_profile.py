"""Per-column statistical profiles from one Spark aggregation.

The profile carries exactly what the paper's prompts need: row/null
counts, distinct cardinality, and the top-K value frequencies (the
"sample frequent values (by default 1000)" of §2.1.1). Top values are
ordered by descending count with the value itself as a deterministic
tie-break so profiles — and therefore every downstream LLM decision —
are stable across runs.

Every statistic comes from **one** Spark job: the table is unpivoted
to ``(column, value)`` cells, NULL cells included, and a single
``groupBy`` counts them. The counts are collected through Arrow and
everything else is derived on the driver: a count-distinct per column
would make Spark add an ``Expand`` and a two-level aggregate, and a
top-K window a second shuffle.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from pyspark.sql import DataFrame


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
    """Profile many string columns in one Spark job.

    The driver receives one row per distinct (column, value), NULL
    included. A column's ``total`` is the sum of its counts, ``nulls``
    its NULL group's count and ``n_distinct`` its number of non-NULL
    groups. Its top values are the non-NULL groups ordered by
    ``(-count, value)``: Python's code-point order of ``str`` equals
    Spark's binary UTF-8 order, so ties break as a Spark sort would.
    """
    counts = (
        df.unpivot(ids=[], values=columns,
                   variableColumnName="__col", valueColumnName="__val")
        .groupBy("__col", "__val").count()
        .toPandas()
    )
    nulls = dict.fromkeys(columns, 0)
    groups: dict[str, list[tuple[str, int]]] = {c: [] for c in columns}
    for c, v, n in zip(counts["__col"].tolist(), counts["__val"].tolist(),
                       counts["count"].tolist()):
        if v is None:
            nulls[c] = n
        else:
            groups[c].append((v, n))
    return {
        c: ColumnProfile(
            name=c,
            total=nulls[c] + sum(n for _, n in groups[c]),
            nulls=nulls[c],
            n_distinct=len(groups[c]),
            top_values=tuple(heapq.nsmallest(
                top_k, groups[c], key=lambda vn: (-vn[1], vn[0]))),
        )
        for c in columns
    }
