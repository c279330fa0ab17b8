"""HoloClean-style baseline: constraint-driven probabilistic repair.

HoloClean (Rekatsinas et al.) detects cells violating user-supplied
denial constraints and repairs them by probabilistic inference over
candidate values. For single-attribute FD constraints — the form the
paper supplies ground truth for — the MAP repair collapses to the
group's posterior mode, applied when the mode is sufficiently probable
(``TAU``). The defining trait the paper measures is preserved: errors
not expressible as constraint violations (unit inconsistency, format
drift, open typos) are invisible to it.

``max_rows`` reproduces the paper's footnote: HoloClean runs out of
memory on Movies, so only the first 1000 rows are processed (the rest
pass through untouched).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

#: the smallest share of its group the mode needs to be applied
TAU = 0.5


def holoclean_clean(
    dirty: DataFrame,
    constraints: list[tuple[str, str]],
    *,
    max_rows: int | None = None,
) -> DataFrame:
    """Repair FD-constraint violations to the group mode.

    Purely DataFrame-API: per constraint, one aggregation computes the
    (lhs, mode, share) table, which is broadcast-joined back and applied
    with a null-preserving conditional.
    """
    df = dirty
    scoped = df
    rest = None
    if max_rows is not None:
        in_scope = F.col("row_id").cast("long") < max_rows
        scoped = df.where(in_scope)
        rest = df.where(~in_scope)

    for lhs, rhs in constraints:
        pair = (
            scoped.where(F.col(lhs).isNotNull() & F.col(rhs).isNotNull())
            .groupBy(lhs, rhs)
            .agg(F.count(F.lit(1)).alias("_cnt"))
        )
        w = Window.partitionBy(lhs)
        modes = (
            pair.withColumn("_total", F.sum("_cnt").over(w))
            .withColumn(
                "_rank",
                F.row_number().over(w.orderBy(F.desc("_cnt"), F.asc(rhs))),
            )
            .where(F.col("_rank") == 1)
            .where(F.col("_cnt") / F.col("_total") >= TAU)
            .where(F.col("_cnt") < F.col("_total"))  # has violations
            .select(
                F.col(lhs).alias("_lhs_v"),
                F.col(rhs).alias("_mode_v"),
            )
        )
        scoped = (
            scoped.join(modes, scoped[lhs] == modes["_lhs_v"], "left")
            .withColumn(
                rhs,
                F.when(
                    F.col("_mode_v").isNotNull() & F.col(rhs).isNotNull(),
                    F.col("_mode_v"),
                ).otherwise(F.col(rhs)),
            )
            .drop("_lhs_v", "_mode_v")
        )

    return scoped.unionByName(rest) if rest is not None else scoped


#: Ground-truth denial constraints per benchmark (the paper: "Holoclean
#: additionally takes denial constraints as input, for which we provide
#: the ground truth"). Movies has no usable single-attribute FDs — the
#: classic benchmark's constraints do not transfer to its sampled rows.
CONSTRAINTS: dict[str, list[tuple[str, str]]] = {
    "hospital": [
        ("zip", "city"),
        ("zip", "state"),
        ("measure_code", "measure_name"),
    ],
    "flights": [
        ("flight", "sched_dep_time"),
        ("flight", "act_dep_time"),
        ("flight", "sched_arr_time"),
        ("flight", "act_arr_time"),
    ],
    "beers": [
        ("brewery_id", "brewery_name"),
        ("brewery_id", "city"),
        ("brewery_id", "state"),
    ],
    "rayyan": [
        ("journal_issn", "journal_title"),
        ("journal_issn", "journal_abbreviation"),
    ],
    "movies": [],
}
