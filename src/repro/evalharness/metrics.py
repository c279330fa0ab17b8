"""Cell-level repair precision / recall / F1 (paper §3 evaluation).

A system's repair is scored against the ground truth cell-by-cell:

* ``precision``  = correct changes / all changes,
* ``recall``     = correct changes / erroneous cells,
* a *change* is any cell where cleaned differs from dirty (null-safe),
* a *correct change* is a changed cell equal to the truth.

``exclude_types`` implements the paper's Table 1 convention: cells whose
error type is column-type or DMV are dropped from both numerator and
denominator ("we consider them correct even if they do not perform
these casts"); Table 3 passes an empty tuple. Everything is computed
with DataFrame joins + aggregations over the melted cell view.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class RepairMetrics:
    n_errors: int
    n_changed: int
    n_correct_changes: int

    @property
    def precision(self) -> float:
        return self.n_correct_changes / self.n_changed if self.n_changed else 0.0

    @property
    def recall(self) -> float:
        return self.n_correct_changes / self.n_errors if self.n_errors else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def row(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f1)


def cells(df: DataFrame, value_name: str = "value") -> DataFrame:
    """Melt a wide table into (row_id, column, value) cells."""
    value_cols = [c for c in df.columns if c != "row_id"]
    return df.unpivot(
        ids=["row_id"], values=value_cols,
        variableColumnName="column", valueColumnName=value_name,
    )


def repair_metrics(
    dirty: DataFrame,
    cleaned: DataFrame,
    truth: DataFrame,
    mask: DataFrame,
    *,
    exclude_types: tuple[str, ...] = (),
) -> RepairMetrics:
    """Score ``cleaned`` against ``truth`` over the dirty table's cells.

    Rows removed by the cleaner (dedupe) read as all-NULL cells via the
    left join — a removal counts as a change per cell. ``mask`` must
    have columns (row_id, column, error_type).
    """
    keys = ["row_id", "column"]
    joined = (
        cells(dirty, "dirty_v")
        .join(cells(cleaned, "clean_v"), keys, "left")
        .join(cells(truth, "truth_v"), keys, "left")
        .join(mask, keys, "left")
    )
    # coalesce: isin() is NULL (not false) on unmasked cells, and a NULL
    # would silently drop wrong changes on clean cells from n_changed
    excluded = (
        F.coalesce(F.col("error_type").isin(list(exclude_types)),
                   F.lit(False))
        if exclude_types else F.lit(False)
    )
    changed = ~F.col("dirty_v").eqNullSafe(F.col("clean_v"))
    correct = F.col("clean_v").eqNullSafe(F.col("truth_v"))
    is_error = F.col("error_type").isNotNull()
    agg = joined.agg(
        F.sum((is_error & ~excluded).cast("long")).alias("n_errors"),
        F.sum((changed & ~excluded).cast("long")).alias("n_changed"),
        F.sum((changed & correct & ~excluded).cast("long")).alias("n_tp"),
    ).collect()[0]
    return RepairMetrics(
        n_errors=int(agg["n_errors"] or 0),
        n_changed=int(agg["n_changed"] or 0),
        n_correct_changes=int(agg["n_tp"] or 0),
    )
