"""Per-column statistical profiles and duplicate rows from one Spark
aggregation.

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
top-K window a second shuffle. :func:`profile_rows` adds one more
unpivoted cell per row, the whole row as a JSON key, so the same job
also finds the exactly duplicated rows (§2.1.7) that
:func:`duplicate_rows` summarizes.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: top values kept per column; a column with more distinct values skips
#: the cleaning steps that need an exhaustive value list
TOP_K = 5000
#: sample renderings :func:`duplicate_rows` returns
SAMPLE_ROWS = 5


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


def _cell_counts(df: DataFrame, columns: list[str]) -> DataFrame:
    """One row per distinct ``(__col, __val)`` cell, NULL included."""
    return (
        df.unpivot(ids=[], values=columns,
                   variableColumnName="__col", valueColumnName="__val")
        .groupBy("__col", "__val").count()
    )


def _profiles(counts: pd.DataFrame, columns: list[str],
              top_k: int) -> dict[str, ColumnProfile]:
    """Every column's profile from its collected cell counts.

    A column's ``total`` is the sum of its counts, ``nulls`` its NULL
    group's count and ``n_distinct`` its number of non-NULL groups. Its
    top values are the non-NULL groups ordered by ``(-count, value)``:
    Python's code-point order of ``str`` equals Spark's binary UTF-8
    order, so ties break as a Spark sort would.
    """
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


def profile_table(df: DataFrame,
                  columns: list[str]) -> dict[str, ColumnProfile]:
    """Profile many string columns in one Spark job.

    The driver receives one row per distinct (column, value), NULL
    included, and derives each profile from them.
    """
    return _profiles(_cell_counts(df, columns).toPandas(), columns, TOP_K)


def profile_rows(
    df: DataFrame, columns: list[str],
) -> tuple[dict[str, ColumnProfile], list[tuple[str, int]]]:
    """Profiles without top values, and every repeated row, in one job.

    Besides the columns' cells, each row contributes one cell holding
    the row itself, ``to_json(array(<columns>))``: an injective key in
    which NULLs group together as they do in a ``GROUP BY``. Only keys
    seen more than once leave Spark. Returns the profiles (``top_k=0``)
    and the repeated rows as ``(key, count)``.
    """
    label = "__row"
    while label in columns:
        label = "_" + label
    cells = [F.col(c) for c in columns]
    keyed = df.select(*cells, F.to_json(F.array(*cells)).alias(label))
    counts = (
        _cell_counts(keyed, columns + [label])
        .where((F.col("__col") != label) | (F.col("count") > 1))
        .toPandas()
    )
    is_row = counts["__col"] == label
    rows = counts[is_row]
    return (_profiles(counts[~is_row], columns, top_k=0),
            list(zip(rows["__val"].tolist(), rows["count"].tolist())))


def duplicate_rows(repeated: list[tuple[str, int]],
                   columns: list[str]) -> tuple[int, list[str]]:
    """Surplus duplicated rows, plus sample renderings.

    ``repeated`` is :func:`profile_rows`'s ``(key, count)`` list over
    ``columns``. A row appearing ``k`` times contributes ``k - 1``
    surplus rows — the number ``SELECT DISTINCT`` would remove. The
    samples are the ``SAMPLE_ROWS`` most repeated rows, ties ordered by
    key.
    """
    surplus = sum(n - 1 for _, n in repeated)
    examples = [
        ", ".join(f"{c}={v!r}" for c, v in zip(columns, json.loads(key)))
        + f" (x{n})"
        for key, n in heapq.nsmallest(SAMPLE_ROWS, repeated,
                                      key=lambda kn: (-kn[1], kn[0]))
    ]
    return surplus, examples
