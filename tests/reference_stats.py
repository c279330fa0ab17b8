"""Reference implementations of the pipeline's table statistics.

These are the earlier, direct formulations: the value cube as a Spark
``groupBy`` over the columns with a row count; FD joint counts from a
``stack`` unpivot of every column pair and one ``groupBy``, reduced to
candidates by a loop over ``(a, b, rows)`` string tuples; the
duplicate-row count from a ``groupBy`` over the row's columns; and the
one-pass row profile whose row key is Spark's ``to_json``. The tests
check the value cube, its folds, the FD candidates and the profiles
derived from it against them.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.profiling import fd
from repro.profiling.column_profile import ColumnProfile, _profiles


def _quote(column: str) -> str:
    return "`" + column.replace("`", "``") + "`"


#: a column pair's joint counts: (a value, b value, rows), no NULLs
TupleJoint = list[tuple[str, str, int]]


def groupby_value_cube(df: DataFrame, columns: list[str]
                       ) -> tuple[pd.DataFrame, np.ndarray]:
    """``fd.value_cube`` as one Spark ``groupBy`` over ``columns`` with a
    row count, collected through Arrow; the columns are named by
    position, so a data column called ``count`` cannot collide."""
    keys = [f"_{i}" for i in range(len(columns))]
    cube = (
        df.select(*[F.col(_quote(c)).cast("string").alias(k)
                    for c, k in zip(columns, keys)])
        .groupBy(*keys).count()
        .toPandas()
    )
    return (cube[keys].set_axis(columns, axis=1),
            cube["count"].to_numpy(dtype=np.int64))


def cube_rows(cube: fd.Cube) -> list[tuple[tuple[str | None, ...], int]]:
    """A coded cube's rows, decoded to their values (NULL as ``None``),
    with their counts."""
    return [(tuple(None if k < 0 else values[k]
                   for values, k in zip(cube.values, row)), n)
            for row, n in zip(cube.codes.tolist(), cube.rows.tolist())]


def stack_joints(df: DataFrame,
                 pairs: list[tuple[str, str]]) -> list[TupleJoint]:
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
    joints: list[TupleJoint] = [[] for _ in pairs]
    for k, va, vb, c in zip(counts["pair"].tolist(), counts["a"].tolist(),
                            counts["b"].tolist(), counts["count"].tolist()):
        joints[k].append((va, vb, c))
    return joints


def _entropy(counts: list[int]) -> float:
    n = sum(counts)
    if n == 0:
        return 0.0
    return -math.fsum((c / n) * math.log2(c / n) for c in counts if c)


def _candidate(
    lhs: str, rhs: str, joint: TupleJoint, *,
    max_violation_rate: float,
    exclude_lhs_values: frozenset[str] | None,
) -> fd.FDCandidate | None:
    """``lhs -> rhs`` from its joint counts ``(lhs value, rhs value, n)``."""
    if exclude_lhs_values:
        joint = [j for j in joint if j[0] not in exclude_lhs_values]
    if not joint:
        return None
    marg_a: dict[str, int] = {}
    marg_b: dict[str, int] = {}
    groups: fd.Groups = {}
    for va, vb, c in joint:
        marg_a[va] = marg_a.get(va, 0) + c
        marg_b[vb] = marg_b.get(vb, 0) + c
        groups.setdefault(va, []).append((vb, c))
    n = sum(marg_a.values())
    h_a = _entropy(list(marg_a.values()))
    h_b = _entropy(list(marg_b.values()))
    h_ab = _entropy([c for _, _, c in joint])
    cond = max(0.0, h_ab - h_a)
    ratio = cond / h_b if h_b > 0 else 0.0
    violating = {k: v for k, v in groups.items() if len(v) > 1}
    viol_rows = sum(sum(c for _, c in v) - max(c for _, c in v)
                    for v in violating.values())
    rate = viol_rows / n if n else 0.0
    if (violating and ratio <= fd.MAX_ENTROPY_RATIO
            and rate <= max_violation_rate):
        return fd.FDCandidate(lhs, rhs, cond, ratio, rate, len(violating),
                              violating)
    return None


def list_fd_candidates(
    pairs: list[tuple[str, str]],
    joints: list[TupleJoint],
    *,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[fd.FDCandidate]:
    """``fd.fd_candidates`` as a loop over each joint's string tuples."""
    out: list[fd.FDCandidate] = []
    for (a, b), joint in zip(pairs, joints):
        for lhs, rhs, rows in ((a, b, joint),
                               (b, a, [(vb, va, c) for va, vb, c in joint])):
            cand = _candidate(lhs, rhs, rows,
                              max_violation_rate=max_violation_rate,
                              exclude_lhs_values=exclude_lhs_values)
            if cand is not None:
                out.append(cand)
    out.sort(key=lambda f: (f.entropy_ratio, f.lhs, f.rhs))
    return out


def stack_discover_fds(
    df: DataFrame,
    columns: list[str],
    *,
    n_distinct: dict[str, int],
    total: int,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[fd.FDCandidate]:
    """``discover_fds`` over ``df``'s ``columns``, from
    :func:`stack_joints` and :func:`list_fd_candidates`."""
    pairs = fd.candidate_pairs(columns, n_distinct=n_distinct, total=total)
    if not pairs:
        return []
    return list_fd_candidates(pairs, stack_joints(df, pairs),
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
