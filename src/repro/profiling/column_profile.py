"""Per-column statistical profiles and duplicate rows.

The profile carries exactly what the paper's prompts need: row/null
counts, distinct cardinality, and the top-K value frequencies (the
"sample frequent values (by default 1000)" of §2.1.1). Top values are
ordered by descending count with the value itself as a deterministic
tie-break so profiles — and therefore every downstream LLM decision —
are stable across runs.

Every profile is read from a value cube
(:class:`repro.profiling.fd.Cube`: one scan of the table's columns,
each coded once on the driver). :func:`profile_cube` counts each
column's codes with one ``bincount`` and reads its profile from that
count array: the top values are a sort on count, ties broken by the
values' code-point order, which equals Spark's binary UTF-8 order.
Cocoon collects the cube once and folds it through its cleaning
decisions on the driver; Raha+Baran reads its FD statistics from the
same cube, and RetClean only its profiles. :func:`profile_cube_rows`
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

from repro.profiling.fd import Cube, distinct_rows, value_cube

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


def _marginals(cube: Cube
               ) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """Each column of a value cube with its distinct values and its
    ``bincount``: NULL's rows first, then each value's."""
    for c, codes, values in zip(cube.columns, cube.codes.T, cube.values):
        yield c, values, np.bincount(codes + 1, minlength=len(values) + 1)


def _profile(name: str, values: np.ndarray, counts: np.ndarray,
             top_k: int) -> ColumnProfile:
    """A column's profile from its values and :func:`_marginals` counts;
    a value no row holds is left out. The top values are ordered by
    ``(-count, value)``: the held values sorted by value, then stably
    by count."""
    rows = counts[1:]
    held = np.flatnonzero(rows)
    top: tuple[tuple[str, int], ...] = ()
    if top_k and len(held):
        # str order is code-point order
        by_value = np.array(sorted(held.tolist(),
                                   key=values.tolist().__getitem__))
        order = by_value[np.argsort(-rows[by_value], kind="stable")[:top_k]]
        top = tuple(zip(values[order].tolist(), rows[order].tolist()))
    return ColumnProfile(name=name, total=int(counts.sum()),
                         nulls=int(counts[0]), n_distinct=len(held),
                         top_values=top)


def profile_cube(cube: Cube) -> dict[str, ColumnProfile]:
    """Every column's profile from a value cube."""
    return {c: _profile(c, values, counts, TOP_K)
            for c, values, counts in _marginals(cube)}


def profile_table(df: DataFrame,
                  columns: list[str]) -> dict[str, ColumnProfile]:
    """Every column's profile: :func:`profile_cube` of their value cube.
    No cleaner calls it; ``perfbench/layers.py`` traces the name."""
    return profile_cube(value_cube(df, columns))


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

    Rows with equal codes, NULLs included, are one row repeated.
    Returns the profiles (``top_k=0``) and the rows held more than once
    as ``(key, count)``, the key being the row's :func:`_row_key`.
    """
    codes, n = distinct_rows(cube.codes)
    repeated = [
        (_row_key(None if k < 0 else values[k]
                  for values, k in zip(cube.values, codes[i].tolist())),
         int(n[i]))
        for i in np.flatnonzero(n > 1)]
    return ({c: _profile(c, values, counts, 0)
             for c, values, counts in _marginals(cube)}, repeated)


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
