"""Per-column statistical profiles and duplicate rows.

The profile carries exactly what the paper's prompts need: row/null
counts, distinct cardinality, and the top-K value frequencies (the
"sample frequent values (by default 1000)" of §2.1.1). Top values are
ordered by descending count with the value itself as a deterministic
tie-break so profiles — and therefore every downstream LLM decision —
are stable across runs.

A profile comes from one of two sources, reduced on the driver by the
same code:

* :func:`profile_table` is **one** Spark job: the table is unpivoted to
  ``(column, value)`` cells, NULL cells included, and a single
  ``groupBy`` counts them. The counts are collected through Arrow and
  everything else is derived on the driver: a count-distinct per column
  would make Spark add an ``Expand`` and a two-level aggregate, and a
  top-K window a second shuffle. No cleaner calls it any more; the
  tests keep it as the reference :func:`profile_cube` is checked
  against.
* :func:`profile_cube` marginalizes a value cube
  (:class:`repro.profiling.fd.Cube`: the distinct rows and their counts,
  one scan coded once and deduplicated on the driver) with a
  ``bincount`` of each column's codes. Cocoon collects it once and
  folds it through its cleaning decisions on the driver; Raha+Baran
  reads its FD statistics from the same cube, and RetClean only its
  profiles. :func:`profile_cube_rows`
  also finds a cube's exactly duplicated rows (§2.1.7) over its code
  matrix, which :func:`duplicate_rows` summarizes.
"""
from __future__ import annotations

import heapq
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.profiling.fd import Cube, distinct_rows

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


def _profiles(cells: Iterable[tuple[str, str | None, int]],
              columns: list[str], top_k: int) -> dict[str, ColumnProfile]:
    """Every column's profile from its ``(column, value, count)`` cells,
    one per distinct value, NULL included.

    A column's ``total`` is the sum of its counts, ``nulls`` its NULL
    cell's count and ``n_distinct`` its number of non-NULL cells. Its
    top values are the non-NULL cells ordered by ``(-count, value)``:
    Python's code-point order of ``str`` equals Spark's binary UTF-8
    order, so ties break as a Spark sort would.
    """
    nulls = dict.fromkeys(columns, 0)
    groups: dict[str, list[tuple[str, int]]] = {c: [] for c in columns}
    for c, v, n in cells:
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
    counts = _cell_counts(df, columns).toPandas()
    return _profiles(zip(counts["__col"].tolist(), counts["__val"].tolist(),
                         counts["count"].tolist()), columns, TOP_K)


def _cube_cells(cube: Cube) -> Iterator[tuple[str, str | None, int]]:
    """Each column's marginal of a value cube, as ``_profiles`` cells:
    a ``bincount`` of its codes; a value no row holds is left out."""
    for c, codes, values in zip(cube.columns, cube.codes.T, cube.values):
        # float sums of integer counts are exact below 2**53 rows
        n = np.bincount(codes + 1, weights=cube.rows,
                        minlength=len(values) + 1).astype(np.int64)
        yield c, None, int(n[0])
        yield from ((c, v, k) for v, k in zip(values.tolist(),
                                              n[1:].tolist()) if k)


def profile_cube(cube: Cube) -> dict[str, ColumnProfile]:
    """Every column's profile from a value cube; equal to
    :func:`profile_table` of the table the cube counts."""
    return _profiles(_cube_cells(cube), cube.columns, TOP_K)


#: how Spark's ``to_json`` escapes a string's characters: the short
#: escapes, and every other control character as upper-case ``\u00XX``
_JSON_ESCAPES = {i: f"\\u{i:04X}" for i in range(32)} | {
    ord(ch): "\\" + e for ch, e in zip('"\\\b\t\n\f\r', '"\\btnfr')}


def _row_key(values: Iterable[str | None]) -> str:
    """Spark's ``to_json(array(<values>))``, byte for byte: an injective
    key of a row in which NULLs compare equal, as in a ``GROUP BY``."""
    return "[" + ",".join(
        "null" if v is None else '"' + v.translate(_JSON_ESCAPES) + '"'
        for v in values) + "]"


def profile_cube_rows(
    cube: Cube,
) -> tuple[dict[str, ColumnProfile], list[tuple[str, int]]]:
    """Profiles without top values, and every repeated row, of a cube.

    The cube's rows need not be distinct (a folded cube's are not):
    rows with equal codes, NULLs included, add up their counts. Returns
    the profiles (``top_k=0``) and the rows counted more than once as
    ``(key, count)``, the key being the row's :func:`_row_key`.
    """
    codes, n = distinct_rows(cube.codes, cube.rows)
    repeated = [
        (_row_key(None if k < 0 else values[k]
                  for values, k in zip(cube.values, codes[i].tolist())),
         int(n[i]))
        for i in np.flatnonzero(n > 1)]
    return _profiles(_cube_cells(cube), cube.columns, top_k=0), repeated


def duplicate_rows(repeated: list[tuple[str, int]],
                   columns: list[str]) -> tuple[int, list[str]]:
    """Surplus duplicated rows, plus sample renderings.

    ``repeated`` is :func:`profile_cube_rows`' ``(key, count)`` list over
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
