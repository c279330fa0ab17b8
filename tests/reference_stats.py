"""Reference implementations of the pipeline's table statistics.

These are the earlier, direct Spark formulations: FD joint counts from
a ``stack`` unpivot of every column pair and one ``groupBy``, the
duplicate-row count from a ``groupBy`` over the row's columns, and the
one-pass row profile whose row key is Spark's ``to_json``. The tests
check the value cube, its folds and the profiles derived from it
against them.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.profiling import fd
from repro.profiling.column_profile import ColumnProfile, _profiles


def _quote(column: str) -> str:
    return "`" + column.replace("`", "``") + "`"


def stack_joints(df: DataFrame,
                 pairs: list[tuple[str, str]]) -> list[fd.Joint]:
    """Each pair's joint counts over ``df``, NULLs dropped: one row per
    ``(pair, a, b)`` from a ``stack`` unpivot and one ``groupBy``."""
    stack = ", ".join(
        f"{k}, CAST({_quote(a)} AS STRING), CAST({_quote(b)} AS STRING)"
        for k, (a, b) in enumerate(pairs))
    counts = (
        df.selectExpr(f"stack({len(pairs)}, {stack}) AS (pair, a, b)")
        .where("a IS NOT NULL AND b IS NOT NULL")
        .groupBy("pair", "a", "b").count()
        .toPandas()
    )
    joints: list[fd.Joint] = [[] for _ in pairs]
    for k, va, vb, c in zip(counts["pair"].tolist(), counts["a"].tolist(),
                            counts["b"].tolist(), counts["count"].tolist()):
        joints[k].append((va, vb, c))
    return joints


def stack_discover_fds(
    df: DataFrame,
    columns: list[str],
    *,
    n_distinct: dict[str, int],
    total: int,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[fd.FDCandidate]:
    """``discover_fds`` with its joint counts from :func:`stack_joints`."""
    pairs = fd.candidate_pairs(columns, n_distinct=n_distinct, total=total)
    if not pairs:
        return []
    return fd.fd_candidates(pairs, stack_joints(df, pairs),
                            max_violation_rate=max_violation_rate,
                            exclude_lhs_values=exclude_lhs_values)


def duplicate_rows(
    df: DataFrame, *, subset: list[str] | None = None, sample: int = 5
) -> tuple[int, list[str]]:
    """Count of surplus exactly-duplicated rows, plus sample renderings
    of the most repeated rows (ties in no particular order)."""
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


def normalized_groups(cand: fd.FDCandidate) -> dict[str, list]:
    """A candidate's violating groups, independent of row order."""
    return {k: sorted(v) for k, v in cand.groups.items()}


def profile_rows(
    df: DataFrame, columns: list[str],
) -> tuple[dict[str, ColumnProfile], list[tuple[str, int]]]:
    """Profiles without top values, and every repeated row, in one job.

    ``df`` is unpivoted to ``(column, value)`` cells and one ``groupBy``
    counts them. Besides the columns' cells, each row contributes one
    cell holding the row itself, ``to_json(array(<columns>))``: an
    injective key in which NULLs group together as they do in a
    ``GROUP BY``. Only keys seen more than once leave Spark. Returns the
    profiles (``top_k=0``) and the repeated rows as ``(key, count)``.
    """
    label = "__row"
    while label in columns:
        label = "_" + label
    cells = [F.col(_quote(c)) for c in columns]
    keyed = df.select(*cells, F.to_json(F.array(*cells)).alias(label))
    counts = (
        keyed.unpivot(ids=[], values=columns + [label],
                      variableColumnName="__col", valueColumnName="__val")
        .groupBy("__col", "__val").count()
        .where((F.col("__col") != label) | (F.col("count") > 1))
        .toPandas()
    )
    is_row = counts["__col"] == label
    cols, rows = counts[~is_row], counts[is_row]
    return (_profiles(zip(cols["__col"].tolist(), cols["__val"].tolist(),
                          cols["count"].tolist()), columns, top_k=0),
            list(zip(rows["__val"].tolist(), rows["count"].tolist())))
